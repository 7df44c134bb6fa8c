//! The accept side of every listening socket: the TCP transport's poller
//! and the metrics door each run a [`Door`] on their one poller thread.
//!
//! A door keeps a nonblocking listener in a [`Poller`]'s readiness set as
//! [`LISTEN_TOKEN`] and each connection it accepts in a slot, polled as
//! `CONN_BASE | slot`. An accepted connection starts *bounded*: its head (a
//! HELLO, an HTTP request head) is read without blocking and never past the
//! owner's byte cap, it is overdue [`HEAD_TIMEOUT`] after its accept, and
//! past [`MAX_WAITING`] bounded connections a new one closes the oldest.
//! One that breaks a bound is rejected: closed, and counted in the owner's
//! registry cell. The owner ends the bounds by admitting the connection, or
//! closes it.

use super::sys::Poller;
use crate::metrics::Counter;
use std::io::{self, ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long an accepted connection may take until its owner admits or
/// closes it.
pub(crate) const HEAD_TIMEOUT: Duration = Duration::from_secs(5);

/// Bounded connections a door holds at once; a new one over the cap closes
/// the oldest.
pub(crate) const MAX_WAITING: usize = 16;

/// Poll token of the listening socket.
pub(crate) const LISTEN_TOKEN: u64 = Poller::WAKE_TOKEN - 1;

/// Poll-token namespace of accepted connections; tokens below it are the
/// owner's own (the transport's outbound links use their peer index).
pub(crate) const CONN_BASE: u64 = 1 << 32;

/// One accepted connection.
pub(crate) struct Conn<A> {
    pub(crate) stream: TcpStream,
    /// What has arrived of the head.
    pub(crate) head: Vec<u8>,
    /// The owner's state of the connection, once it has one.
    pub(crate) owner: Option<A>,
    /// Past this instant a connection not yet admitted is overdue.
    due: Option<Instant>,
}

/// What a nonblocking read of a head found.
pub(crate) enum Fill {
    /// The head holds the cap's worth of bytes.
    Full,
    /// The socket holds nothing more for now.
    Pending,
    /// The peer closed, or the read failed.
    Closed,
}

impl<A> Conn<A> {
    /// Reads what the socket holds into the head, never past `cap` bytes.
    pub(crate) fn fill(&mut self, cap: usize) -> Fill {
        let mut chunk = [0u8; 1024];
        while self.head.len() < cap {
            let want = chunk.len().min(cap - self.head.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Fill::Closed,
                Ok(got) => self.head.extend_from_slice(&chunk[..got]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Fill::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Fill::Closed,
            }
        }
        Fill::Full
    }
}

/// A listener and the connections it accepted, by slot.
pub(crate) struct Door<A> {
    listener: TcpListener,
    pub(crate) conns: Vec<Option<Conn<A>>>,
    /// Connections closed for breaking a bound.
    rejects: Counter,
}

impl<A> Door<A> {
    /// Watches `listener` on `poller`, counting rejects in `rejects`.
    pub(crate) fn new(
        listener: TcpListener,
        poller: &Poller,
        rejects: Counter,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), LISTEN_TOKEN, true, false)?;
        Ok(Door {
            listener,
            conns: Vec::new(),
            rejects,
        })
    }

    /// Accepts the next queued connection into a free slot; `None` once the
    /// queue is empty. Each call first closes the oldest bounded connection
    /// past the cap, so a caller that reads each new head at once (it
    /// usually arrives with the handshake) caps only those still waiting.
    pub(crate) fn accept_next(&mut self, poller: &Poller) -> Option<usize> {
        if self.bounded().count() > MAX_WAITING {
            let (_, oldest) = self.bounded().min().expect("over the cap");
            self.reject(poller, oldest);
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return None,
            };
            let slot = self.conns.iter().position(Option::is_none);
            let slot = slot.unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let (fd, token) = (stream.as_raw_fd(), CONN_BASE | slot as u64);
            if stream.set_nonblocking(true).is_err()
                || poller.register(fd, token, true, false).is_err()
            {
                continue;
            }
            let due = Some(Instant::now() + HEAD_TIMEOUT);
            self.conns[slot] = Some(Conn {
                stream,
                head: Vec::new(),
                owner: None,
                due,
            });
            return Some(slot);
        }
    }

    /// Deadline and slot of every bounded connection.
    fn bounded(&self) -> impl Iterator<Item = (Instant, usize)> + '_ {
        let due = |(slot, c): (usize, &Option<Conn<A>>)| Some((c.as_ref()?.due?, slot));
        self.conns.iter().enumerate().filter_map(due)
    }

    /// Rejects every overdue connection; returns how long until the next
    /// deadline, if any is left.
    pub(crate) fn sweep(&mut self, poller: &Poller, now: Instant) -> Option<Duration> {
        let overdue: Vec<usize> = self.bounded().filter(|w| now >= w.0).map(|w| w.1).collect();
        for slot in overdue {
            self.reject(poller, slot);
        }
        self.bounded().map(|w| w.0 - now).min()
    }

    /// Ends a connection's bounds and hands it to its owner as `state`.
    pub(crate) fn admit(&mut self, slot: usize, state: A) {
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            (conn.head, conn.owner, conn.due) = (Vec::new(), Some(state), None);
        }
    }

    /// Closes a connection that broke a bound, and counts it.
    pub(crate) fn reject(&mut self, poller: &Poller, slot: usize) {
        self.rejects.inc();
        self.close(poller, slot);
    }

    /// Deregisters and drops one connection.
    pub(crate) fn close(&mut self, poller: &Poller, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            poller.deregister(conn.stream.as_raw_fd());
        }
    }
}
