//! Minimal readiness-polling layer over `epoll(7)`, declared directly
//! against libc symbols that `std` already links, so the workspace stays
//! dependency-free. The build is Linux-only: this module is the one place
//! that says so.
//!
//! The surface is deliberately tiny: register/modify/deregister a file
//! descriptor with a `u64` token and an (IN, OUT) interest pair, wait for a
//! batch of [`PollEvent`]s, and wake a sleeping waiter from another thread
//! via a [`Waker`] (an `eventfd`). The event-loop transport's poller and the
//! metrics door, each running the accept loop of [`super::poll`], are the
//! consumers.
//!
//! Every `unsafe` block here is one libc call and states, in a `// SAFETY:`
//! comment, why its pointers are valid and its descriptors are ours; the
//! lint below makes that comment mandatory.
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!("poseidon builds for Linux only: the transport polls sockets with epoll(7)");

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token supplied at registration ([`Poller::WAKE_TOKEN`] for the
    /// internal waker).
    pub token: u64,
    /// Readable (or peer closed its write side — a read will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition; the fd should be serviced and retired.
    pub hangup: bool,
}

// epoll_event is packed on x86-64 (kernel ABI), naturally aligned elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Wakes a [`Poller::wait`] in progress from any thread. Cloneable; holds a
/// non-owning handle (the poller owns the underlying fd).
#[derive(Debug, Clone, Copy)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Interrupts the poller's current (or next) wait. Best-effort: errors
    /// are ignored — a failed wake only delays service until the poll tick.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        // An EAGAIN here means the counter is already nonzero — the poller
        // will wake anyway.
        // SAFETY: `write` reads exactly `one.len()` bytes from the live local
        // array; `fd` is the eventfd of the `Poller` this waker came from,
        // which its owner keeps alive for as long as anyone can wake it.
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }
}

/// A readiness poller backed by `epoll(7)`.
pub struct Poller {
    epfd: RawFd,
    wake_fd: RawFd,
}

impl Poller {
    /// Token reserved for the internal wake channel; [`Poller::wait`] filters
    /// it out of the reported events.
    pub const WAKE_TOKEN: u64 = u64::MAX;

    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointer arguments; the call only creates a new fd.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: no pointer arguments; the call only creates a new fd.
        let wake_fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wake_fd < 0 {
            let e = io::Error::last_os_error();
            // SAFETY: `epfd` was just created by this function and is not
            // stored anywhere else, so it is closed exactly once.
            unsafe { close(epfd) };
            return Err(e);
        }
        let poller = Poller { epfd, wake_fd };
        poller.register(wake_fd, Poller::WAKE_TOKEN, true, false)?;
        Ok(poller)
    }

    pub fn waker(&self) -> Waker {
        Waker { fd: self.wake_fd }
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` (the
        // kernel ABI, packed on x86-64) that the kernel only reads during
        // the call; `self.epfd` is our open epoll fd. A stale `fd` is
        // reported as an error, not undefined behaviour.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        let mut events = EPOLLRDHUP;
        if readable {
            events |= EPOLLIN;
        }
        if writable {
            events |= EPOLLOUT;
        }
        events
    }

    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, Self::interest(readable, writable))
    }

    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, Self::interest(readable, writable))
    }

    pub fn deregister(&self, fd: RawFd) {
        // Best-effort: the fd may already be gone.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness, appending reports to `out` (which is cleared
    /// first). `None` blocks indefinitely. Wake-channel events are drained
    /// and filtered out; a `true` return means the wait was interrupted by a
    /// [`Waker`].
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<bool> {
        out.clear();
        let timeout_ms = match timeout {
            // Zero means "report what is ready right now, never sleep".
            Some(t) if t.is_zero() => 0,
            // Round up so a 100µs deadline does not spin at timeout 0.
            Some(t) => i32::try_from(t.as_millis().max(1).min(i32::MAX as u128)).unwrap(),
            None => -1,
        };
        let mut raw = [EpollEvent { events: 0, data: 0 }; 64];
        let n = loop {
            // SAFETY: the kernel writes at most `raw.len()` events into the
            // live local array, which has exactly that many slots.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        let mut woken = false;
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (events, token) = (ev.events, ev.data);
            if token == Poller::WAKE_TOKEN {
                woken = true;
                let mut buf = [0u8; 8];
                // SAFETY: the kernel writes at most `buf.len()` bytes into
                // the live local array; `wake_fd` is ours until drop.
                unsafe { read(self.wake_fd, buf.as_mut_ptr(), buf.len()) };
                continue;
            }
            out.push(PollEvent {
                token,
                readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(woken)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller owns both fds and this is the only place that
        // closes them; no `Waker` outlives its `Poller` in use.
        unsafe {
            close(self.epfd);
            close(self.wake_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn reports_readable_when_data_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 42, true, false)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        let mut buf = [0u8; 2];
        let mut s = &server;
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        let woken = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(woken, "wait must report the wake");
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events.is_empty(), "wake channel is filtered out");
        t.join().unwrap();
    }

    #[test]
    fn writable_interest_is_dynamic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (_server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // Read-only interest: an idle writable socket reports nothing.
        poller.register(client.as_raw_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.iter().all(|e| !e.writable));
        // Add write interest: an empty socket buffer reports writable.
        poller.modify(client.as_raw_fd(), 7, true, true).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.writable));
    }
}
