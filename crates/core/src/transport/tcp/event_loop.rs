//! The poller of one TCP endpoint: the accept path, the per-link dial
//! state machine, the vectored write path and inbound frame reassembly.
//! It is the only thread that dials, severs or closes a mesh socket.

use super::net::{HelloGate, HELLO_BYTES};
use super::*;
use crate::pool::BufPool;
use crate::transport::poll::{Fill, CONN_BASE, LISTEN_TOKEN};
use crate::transport::Backoff;
use crate::wire::{assemble, parse_header, FrameHeader};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::Shutdown;
use std::thread::Thread;

/// Per-connection staging buffer for inbound frame reassembly. Any frame
/// with a payload under [`DIRECT_READ_MIN`] is parsed wholly out of staging.
const STAGING_BYTES: usize = 64 * 1024;

/// Payloads at least this large switch to direct-read mode: the remaining
/// bytes are read straight into the pooled lease that becomes the delivered
/// payload, skipping the staging copy entirely.
const DIRECT_READ_MIN: usize = 8 * 1024;

/// Cap on a single staging refill read. Kept at [`DIRECT_READ_MIN`] so the
/// bulk of a large payload is never pre-staged: at most this many of its
/// bytes arrive via staging (one copy into the lease) before the header
/// parses and the remainder streams straight into the lease.
const REFILL_READ_BYTES: usize = DIRECT_READ_MIN;

/// Upper bound on `IoSlice`s per vectored write (well under any OS IOV_MAX).
const MAX_IOV: usize = 64;

/// Poller safety-net tick: the longest the loop sleeps with no deadline.
pub(super) const POLL_TICK: Duration = Duration::from_millis(250);

/// Per-attempt connect timeout of the poller's inline dial. Kept short so
/// one dead peer cannot stall service of the live ones.
const DIAL_ATTEMPT_TIMEOUT: Duration = Duration::from_millis(250);

/// Budget for flushing live queues during shutdown before FIN.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// The longest one wait for readiness lasts while draining.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Outbound link state owned by the poller.
enum OutState {
    /// Connected; frames flush through vectored writes.
    Up(TcpStream),
    /// Not connected: dialing on a backoff schedule, for the first time
    /// (the initial mesh) or after a break.
    Down(DownState),
    /// Reconnect budget exhausted (or no link exists, e.g. our own slot).
    /// A queued frame revives the link into `Down`.
    Dead,
}

struct DownState {
    backoff: Backoff,
    /// Earliest instant of the next dial attempt.
    next: Instant,
    /// Past this instant the link is declared dead; `None` while it has
    /// never been up (the initial mesh), which dials until `connect` gives
    /// up, whether or not frames are queued.
    deadline: Option<Instant>,
    attempts: u64,
    /// What broke the link, for the dead verdict.
    cause: String,
    /// A link that broke with nothing queued parks instead of dialing: the
    /// peer may simply have shut down, and dialing it would manufacture
    /// phantom reconnects. Parked links ignore `next`/`deadline` entirely;
    /// queued traffic unparks them with a fresh budget and dials at once.
    parked: bool,
}

impl DownState {
    /// A link that broke at `now`: it dials at once, and dies
    /// `reconnect_timeout` later.
    fn fresh(spec: &TcpFabricSpec, now: Instant, cause: String) -> DownState {
        DownState {
            backoff: Backoff::new(spec.backoff_base, spec.backoff_cap),
            next: now,
            deadline: Some(now + spec.reconnect_timeout),
            attempts: 0,
            cause,
            parked: false,
        }
    }

    /// A link of the initial mesh: it dials at once.
    fn initial(spec: &TcpFabricSpec) -> DownState {
        DownState {
            deadline: None,
            ..Self::fresh(spec, Instant::now(), "never up".into())
        }
    }

    /// Whether the link was up before: only then is a dial a redial, and a
    /// connection a reconnect.
    fn was_up(&self) -> bool {
        self.deadline.is_some()
    }
}

/// An in-flight direct read: the frame header plus the pooled lease being
/// filled straight off the socket.
struct DirectRead {
    header: FrameHeader,
    lease: crate::pool::PooledBuf,
    have: usize,
}

/// One admitted inbound connection's reassembly state. Until its HELLO is
/// admitted, a connection holds only the HELLO's bytes ([`Door`]).
pub(super) struct InConn {
    peer: usize,
    from_node: usize,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    direct: Option<DirectRead>,
}

/// Why an inbound connection is being retired.
enum Close {
    /// EOF or I/O error — the peer is gone or reconnecting; not our error.
    Benign,
    /// The peer sent bytes that violate the wire protocol.
    Poison(crate::wire::FrameError),
}

/// The poller: owns the listener and every socket, admits HELLOs, services
/// readiness, flushes queues, serves severs, and runs the per-link dial
/// state machine.
pub(super) struct EventLoop {
    shared: Arc<Shared>,
    /// The listener and the accepted connections, bad HELLOs counted in
    /// `poseidon_bad_hellos_total`.
    door: Door<InConn>,
    gate: HelloGate,
    /// Our connection generation per peer, bumped on every dial attempt.
    gens: Vec<u32>,
    /// The thread blocked in `connect`, unparked once the initial mesh is
    /// up.
    connector: Thread,
    out: Vec<OutState>,
    /// Whether EPOLLOUT interest is currently registered per link.
    wants_writable: Vec<bool>,
}

impl EventLoop {
    /// A poller with every outbound link dialing for the initial mesh.
    pub(super) fn new(shared: Arc<Shared>, door: Door<InConn>, connector: Thread) -> EventLoop {
        let (n, me) = (shared.links.len(), shared.core.me());
        let initial = |peer| match peer == me {
            true => OutState::Dead,
            false => OutState::Down(DownState::initial(&shared.spec)),
        };
        EventLoop {
            gate: HelloGate::new(n, shared.dup_hellos.clone()),
            out: (0..n).map(initial).collect(),
            shared,
            door,
            gens: vec![0; n],
            connector,
            wants_writable: vec![false; n],
        }
    }

    /// Serves the endpoint until shutdown, then drains and closes. Returns
    /// what the initial mesh still lacked when the loop stopped.
    pub(super) fn run(mut self) -> Option<String> {
        telemetry::set_thread_track(format!("poller e{}", self.shared.core.me()));
        let mut events: Vec<sys::PollEvent> = Vec::new();
        let mut last_occupancy = Instant::now();
        while !self.shared.down.load(Ordering::SeqCst) {
            let now = Instant::now();
            let due = self.door.sweep(&self.shared.poller, now);
            self.sweep(now);
            // Sleep until the next dial or HELLO deadline, capped at the
            // tick. Parked links have no deadline: they dial only when
            // traffic arrives, and the sender's wake covers that.
            let mut timeout = due.map_or(POLL_TICK, |due| due.min(POLL_TICK));
            for st in &self.out {
                if let OutState::Down(d) = st {
                    if !d.parked {
                        timeout = timeout.min(d.next.saturating_duration_since(now));
                    }
                }
            }
            // Sleep/wake protocol: announce we are about to sleep, then
            // consume the dirty flag. Work that raced in skips the sleep;
            // work that lands after sees `sleeping` and fires the waker.
            self.shared.sleeping.store(true, Ordering::SeqCst);
            let wait_for = if self.shared.dirty.swap(false, Ordering::SeqCst) {
                Duration::ZERO
            } else {
                timeout
            };
            let res = self.shared.poller.wait(&mut events, Some(wait_for));
            self.shared.sleeping.store(false, Ordering::SeqCst);
            if res.is_err() {
                break; // the poll fd itself failed; nothing to salvage
            }
            for &ev in &events {
                self.handle_event(ev);
            }
            if telemetry::is_enabled() && last_occupancy.elapsed() >= Duration::from_millis(250) {
                last_occupancy = Instant::now();
                telemetry::counter(
                    "pool.occupancy",
                    0,
                    BufPool::global().stats().resident_bytes,
                );
            }
        }
        let missing = self.missing();
        self.drain_and_close();
        missing
    }

    /// The first peer the initial mesh lacks, not yet dialed or not yet
    /// heard; `None` once the mesh is up.
    fn missing(&self) -> Option<String> {
        let me = self.shared.core.me();
        let lacks = |peer: usize| match &self.out[peer] {
            OutState::Down(d) if !d.was_up() => Some(format!(
                "endpoint {peer} ({}) not dialed after {} attempts",
                self.shared.spec.addrs[peer], d.attempts
            )),
            _ => (!self.gate.heard(peer)).then(|| format!("endpoint {peer} not heard")),
        };
        (0..self.out.len()).filter(|&p| p != me).find_map(lacks)
    }

    /// Counts one more link or HELLO of the initial mesh, and unparks the
    /// connector once the mesh is up.
    fn met_one(&self) {
        if self.shared.unmet.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.connector.unpark();
        }
    }

    /// Reads what is missing of a HELLO — never a frame byte past it — and
    /// admits a whole, valid one through the gate: the connection gets its
    /// staging buffer, and counts towards the initial mesh (a peer's first)
    /// or as a re-accept (any after the mesh is up). A HELLO that is
    /// malformed or cut short is rejected.
    fn read_hello(&mut self, slot: usize) {
        let poller = &self.shared.poller;
        let Some(Some(conn)) = self.door.conns.get_mut(slot) else {
            return;
        };
        match conn.fill(HELLO_BYTES) {
            Fill::Pending => return,
            Fill::Closed => return self.door.reject(poller, slot),
            Fill::Full => {}
        }
        let endpoints = self.shared.spec.addrs.len();
        let Some(hello) = net::validate_hello(&conn.head, self.shared.core.me(), endpoints) else {
            return self.door.reject(poller, slot);
        };
        let first = !self.gate.heard(hello.peer);
        if !self.gate.admit(hello) {
            return self.door.close(poller, slot); // a duplicate, counted by the gate
        }
        if first {
            self.met_one();
        } else if self.shared.unmet.load(Ordering::SeqCst) == 0 {
            self.shared.reaccepted.inc();
            telemetry::instant("reconnect.accept", hello.peer as u64, 0);
        }
        let inbound = InConn {
            peer: hello.peer,
            from_node: self.shared.spec.node_of_endpoint[hello.peer],
            buf: vec![0u8; STAGING_BYTES],
            start: 0,
            end: 0,
            direct: None,
        };
        self.door.admit(slot, inbound);
    }

    fn handle_event(&mut self, ev: sys::PollEvent) {
        if ev.token == LISTEN_TOKEN {
            // Each new HELLO is read at once: it usually arrived with the
            // handshake.
            while let Some(slot) = self.door.accept_next(&self.shared.poller) {
                self.read_hello(slot);
            }
            return;
        }
        if ev.token < CONN_BASE {
            let peer = ev.token as usize;
            if peer >= self.out.len() {
                return;
            }
            *self.shared.last_ready.lock().expect("last ready lock") =
                Some((peer, "tx", Instant::now()));
            // Outbound sockets carry no inbound data, so readable means the
            // peer closed its end (RDHUP) — either way the link is broken.
            if ev.hangup || ev.readable {
                self.break_link(peer, "peer hung up");
            } else if ev.writable {
                self.flush_link(peer);
            }
            return;
        }
        let slot = (ev.token - CONN_BASE) as usize;
        let Some(Some(conn)) = self.door.conns.get_mut(slot) else {
            return;
        };
        let Some(inbound) = conn.owner.as_mut() else {
            return self.read_hello(slot);
        };
        *self.shared.last_ready.lock().expect("last ready lock") =
            Some((inbound.peer, "rx", Instant::now()));
        if let Err(close) = service_inbound(&conn.stream, inbound, &self.shared) {
            if let Close::Poison(e) = close {
                let mut slot_err = self.shared.reader_err.lock().expect("reader error lock");
                if slot_err.is_none() {
                    *slot_err = Some(TransportError::Frame(e));
                }
            }
            self.door.close(&self.shared.poller, slot);
        }
    }

    /// Per-iteration link maintenance: serve pending severs, flush what is
    /// flushable, dial what is due, revive dead links with queued traffic.
    fn sweep(&mut self, now: Instant) {
        for peer in 0..self.out.len() {
            if peer == self.shared.core.me() {
                continue;
            }
            // Lock-free depth probe: a stale zero is safe (the enqueueing
            // sender sets `dirty` and wakes us), a stale non-zero just takes
            // the queue lock once and finds it empty.
            let queued = self.shared.links[peer]
                .as_ref()
                .is_some_and(|l| l.depth.load(Ordering::Relaxed) > 0);
            match &self.out[peer] {
                OutState::Up(_) => {
                    // Skip when awaiting EPOLLOUT: the socket said "full".
                    if !self.serve_sever(peer) && queued && !self.wants_writable[peer] {
                        self.flush_link(peer);
                    }
                }
                OutState::Down(d) => {
                    if queued || !d.was_up() {
                        if d.parked {
                            // Traffic arrived for a parked link: restart the
                            // redial state machine with a fresh budget (the
                            // parked window may be arbitrarily stale) and
                            // dial immediately.
                            let cause = d.cause.clone();
                            self.out[peer] =
                                OutState::Down(DownState::fresh(&self.shared.spec, now, cause));
                            self.try_dial(peer, now);
                        } else if now >= d.next {
                            self.try_dial(peer, now);
                        }
                    } else if !d.parked && now >= d.next {
                        let mut parked = DownState::fresh(&self.shared.spec, now, d.cause.clone());
                        parked.parked = true;
                        self.out[peer] = OutState::Down(parked);
                    }
                }
                OutState::Dead => {
                    if queued {
                        self.out[peer] = OutState::Down(DownState::fresh(
                            &self.shared.spec,
                            now,
                            "link previously declared dead".into(),
                        ));
                    }
                }
            }
        }
    }

    /// Drains one link's queue with vectored writes until empty, the socket
    /// blocks (register write interest), or the link breaks.
    ///
    /// The only code that writes a socket. The queue lock is never held
    /// across a syscall: each round *steals* a batch of frames under the lock
    /// (senders enqueue behind it), writes outside it, then reconciles.
    /// Senders on a hot link stay lock-free-in-practice instead of
    /// futex-sleeping behind every poller write.
    fn flush_link(&mut self, peer: usize) {
        loop {
            let OutState::Up(stream) = &mut self.out[peer] else {
                return;
            };
            let fd = stream.as_raw_fd();
            let Some(link) = self.shared.links[peer].as_ref() else {
                return;
            };
            let mut batch: VecDeque<QueuedFrame> = {
                let mut q = link.q.lock().expect("link queue");
                // Read under the queue lock: a frame queued after a
                // `sever_link` returned is in this queue only if the request
                // is visible here too.
                if link.sever.load(Ordering::SeqCst) {
                    drop(q);
                    self.serve_sever(peer);
                    return;
                }
                if q.frames.is_empty() {
                    drop(q);
                    if self.wants_writable[peer] {
                        self.wants_writable[peer] = false;
                        let _ = self.shared.poller.modify(fd, peer as u64, false, false);
                    }
                    return;
                }
                // Pop, don't split: `split_off` would relocate the whole
                // tail of a deep queue per batch.
                let take = q.frames.len().min(MAX_IOV / 2);
                let mut batch = VecDeque::with_capacity(take);
                for _ in 0..take {
                    batch.push_back(q.frames.pop_front().expect("batch under len"));
                }
                batch
            };
            self.shared.m_writev_batch.record(batch.len() as u64);
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
            for (i, f) in batch.iter().enumerate() {
                if i == 0 && f.written > 0 {
                    // Resume the partially written head, maybe mid-payload.
                    if f.written < FRAME_HEADER_BYTES {
                        iov.push(IoSlice::new(&f.hdr[f.written..]));
                        if !f.payload.is_empty() {
                            iov.push(IoSlice::new(&f.payload));
                        }
                    } else {
                        iov.push(IoSlice::new(&f.payload[f.written - FRAME_HEADER_BYTES..]));
                    }
                } else {
                    iov.push(IoSlice::new(&f.hdr));
                    if !f.payload.is_empty() {
                        iov.push(IoSlice::new(&f.payload));
                    }
                }
            }
            let res = stream.write_vectored(&iov);
            let mut q = link.q.lock().expect("link queue");
            if let Ok(n) = res {
                if n > 0 {
                    advance_batch(link, &mut q, &mut batch, n);
                }
            }
            // Unwritten frames go back where they came from: ahead of
            // anything senders queued while the batch was out.
            let drained = batch.is_empty();
            while let Some(f) = batch.pop_back() {
                q.frames.push_front(f);
            }
            match res {
                Ok(0) => {
                    drop(q);
                    self.break_link(peer, "wrote zero bytes");
                    return;
                }
                Ok(_) => {
                    if !drained {
                        // Socket took a partial batch; try again, it may
                        // still have room.
                        continue;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    drop(q);
                    if !self.wants_writable[peer] {
                        self.wants_writable[peer] = true;
                        let _ = self.shared.poller.modify(fd, peer as u64, false, true);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    let cause = format!("write: {e}");
                    drop(q);
                    self.break_link(peer, &cause);
                    return;
                }
            }
        }
    }

    /// Retires a broken outbound stream and arms the redial state machine.
    /// The partially written head frame is rewound to be rewritten whole —
    /// the peer discards partial frames at EOF, so boundaries stay intact.
    /// A stale readiness event for a link already `Down`/`Dead` is a no-op.
    fn break_link(&mut self, peer: usize, cause: &str) {
        if !matches!(self.out[peer], OutState::Up(_)) {
            return;
        }
        let now = Instant::now();
        let prev = std::mem::replace(
            &mut self.out[peer],
            OutState::Down(DownState::fresh(&self.shared.spec, now, cause.to_string())),
        );
        if let OutState::Up(stream) = prev {
            self.shared.poller.deregister(stream.as_raw_fd());
        }
        self.wants_writable[peer] = false;
        if let Some(link) = &self.shared.links[peer] {
            let mut q = link.q.lock().expect("link queue");
            if let Some(f) = q.frames.front_mut() {
                f.written = 0;
            }
        }
    }

    /// Serves a pending `sever_link` on an `Up` link: shuts its connection
    /// down, then breaks the link as a hangup would. `false` if none was
    /// pending.
    fn serve_sever(&mut self, peer: usize) -> bool {
        // A load first: the sweep runs this on every link each turn, and a
        // swap would write the line senders share with `depth`.
        let pending = |l: &LinkShared| {
            l.sever.load(Ordering::SeqCst) && l.sever.swap(false, Ordering::SeqCst)
        };
        if !self.shared.links[peer].as_ref().is_some_and(pending) {
            return false;
        }
        if let OutState::Up(stream) = &self.out[peer] {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.break_link(peer, "severed");
        true
    }

    /// One inline dial attempt for a `Down` link. Success watches the
    /// connection and flushes; failure backs off, and past the deadline a
    /// link that was up dies. Only a link that was up counts its dials as
    /// redials and its connections as reconnects; the initial mesh's failed
    /// dials are dial retries.
    fn try_dial(&mut self, peer: usize, now: Instant) {
        let mut d = match std::mem::replace(&mut self.out[peer], OutState::Dead) {
            OutState::Down(d) => d,
            other => {
                self.out[peer] = other;
                return;
            }
        };
        d.attempts += 1;
        if d.was_up() {
            self.shared.redial_attempts.inc();
        }
        // Every attempt is a new generation: one that connected and sent its
        // HELLO, then failed to register, must not be a duplicate of the next.
        self.gens[peer] += 1;
        let (addr, me) = (self.shared.spec.addrs[peer], self.shared.core.me());
        let dialed = net::dial_once(addr, me, self.gens[peer], DIAL_ATTEMPT_TIMEOUT);
        // A connection the poller cannot watch is a failed attempt. It
        // watches for hangups only; write interest is added on demand.
        let watched = dialed.and_then(|stream| {
            stream.set_nonblocking(true)?;
            let fd = stream.as_raw_fd();
            self.shared.poller.register(fd, peer as u64, false, false)?;
            Ok(stream)
        });
        match watched {
            Ok(stream) => {
                // A sever asked for while the link was down has no
                // connection to cut. One asked for once `connect` returns
                // or the reconnect is counted applies to this connection.
                if let Some(link) = &self.shared.links[peer] {
                    link.sever.store(false, Ordering::SeqCst);
                }
                self.out[peer] = OutState::Up(stream);
                self.wants_writable[peer] = false;
                if d.was_up() {
                    self.shared.reconnected.inc();
                    telemetry::instant("reconnect", peer as u64, d.attempts);
                } else {
                    self.met_one();
                }
                self.flush_link(peer);
            }
            Err(e) => {
                if !d.was_up() {
                    self.shared.dial_retries.inc();
                    telemetry::instant("dial.retry", peer as u64, d.attempts);
                }
                if d.deadline.is_some_and(|deadline| now >= deadline) {
                    let verdict = format!(
                        "link to endpoint {peer} dead after {} attempts ({}; last: {e})",
                        d.attempts, d.cause
                    );
                    self.kill_link(peer, verdict);
                    self.out[peer] = OutState::Dead;
                } else {
                    let delay = d.backoff.next_delay();
                    d.next = now + delay;
                    self.out[peer] = OutState::Down(d);
                }
            }
        }
    }

    /// Declares a link dead: queued frames are dropped, blocked senders are
    /// released, and the verdict is recorded on the queue.
    fn kill_link(&mut self, peer: usize, verdict: String) {
        let Some(link) = self.shared.links[peer].as_ref() else {
            return;
        };
        let mut q = link.q.lock().expect("link queue");
        let dropped = q.frames.len() as u64;
        link.depth.fetch_sub(dropped, Ordering::Relaxed);
        q.frames.clear();
        q.bytes = 0;
        q.dead = Some(verdict);
        link.space.notify_all();
        telemetry::instant("link.dead", peer as u64, dropped);
    }

    /// Shutdown epilogue: flush live queues within [`DRAIN_BUDGET`] (still
    /// servicing inbound so peers draining *us* are not stalled), then FIN
    /// outbound and retire every socket.
    fn drain_and_close(mut self) {
        let deadline = Instant::now() + DRAIN_BUDGET;
        let mut events: Vec<sys::PollEvent> = Vec::new();
        loop {
            let mut pending = false;
            for peer in 0..self.out.len() {
                if peer == self.shared.core.me() || !matches!(self.out[peer], OutState::Up(_)) {
                    continue;
                }
                self.flush_link(peer);
                let queued = self.shared.links[peer]
                    .as_ref()
                    .map(|l| l.depth.load(Ordering::Relaxed));
                pending |= matches!(self.out[peer], OutState::Up(_)) && queued > Some(0);
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            let res = self.shared.poller.wait(&mut events, Some(DRAIN_POLL));
            if res.is_err() {
                break;
            }
            for &ev in &events {
                self.handle_event(ev);
            }
        }
        // Senders still parked on backpressure must observe the shutdown.
        for link in self.shared.links.iter().flatten() {
            link.space.notify_all();
        }
        // FIN every outbound stream: peers read to EOF, losing nothing that
        // was flushed.
        for st in &self.out {
            if let OutState::Up(stream) = st {
                let _ = stream.shutdown(Shutdown::Write);
                self.shared.poller.deregister(stream.as_raw_fd());
            }
        }
        // Dropping `self` closes the listener and every socket, which leaves
        // the readiness set; the handle closes the inbox once this thread is
        // joined.
    }
}

/// Pops fully written frames (and advances the partial head) of a stolen
/// write batch after a vectored write of `n` bytes, keeping the queue's
/// byte/depth accounting (which still covers stolen frames) in step and
/// signalling senders when space opens up.
fn advance_batch(
    link: &LinkShared,
    q: &mut LinkQueue,
    batch: &mut VecDeque<QueuedFrame>,
    mut n: usize,
) {
    while n > 0 {
        let f = batch.front_mut().expect("advanced past batch");
        let rem = f.len() - f.written;
        if n >= rem {
            n -= rem;
            q.bytes -= f.len() as u64;
            link.depth.fetch_sub(1, Ordering::Relaxed);
            batch.pop_front();
        } else {
            f.written += n;
            n = 0;
        }
    }
    if q.bytes < MAX_LINK_PENDING_BYTES {
        link.space.notify_all();
    }
}

/// Reads and delivers every frame currently available on one inbound
/// connection: staging-buffer parsing for small frames, direct-to-lease
/// reads for payloads of [`DIRECT_READ_MIN`] bytes and up. Returns when the
/// socket would block; `Err` retires the connection.
fn service_inbound(
    mut stream: &TcpStream,
    conn: &mut InConn,
    shared: &Shared,
) -> Result<(), Close> {
    loop {
        // Finish an in-flight direct read first: the lease IS the payload.
        if let Some(d) = conn.direct.as_mut() {
            while d.have < d.lease.len() {
                match stream.read(&mut d.lease[d.have..]) {
                    Ok(0) => return Err(Close::Benign), // died mid-frame
                    Ok(got) => d.have += got,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Err(Close::Benign),
                }
            }
            let d = conn.direct.take().expect("direct read present");
            deliver(conn.from_node, shared, &d.header, d.lease.freeze())?;
            continue;
        }
        // Parse whole frames out of staging.
        while conn.end - conn.start >= FRAME_HEADER_BYTES {
            let hdr: [u8; FRAME_HEADER_BYTES] = conn.buf
                [conn.start..conn.start + FRAME_HEADER_BYTES]
                .try_into()
                .expect("header slice");
            let header = parse_header(&hdr).map_err(Close::Poison)?;
            let plen = header.payload_len;
            let body_start = conn.start + FRAME_HEADER_BYTES;
            let staged = conn.end - body_start;
            if plen >= DIRECT_READ_MIN {
                // Large payload: seed the lease with whatever is already
                // staged and read the rest straight off the socket. The
                // lease is dirty — every byte is overwritten by the staged
                // copy plus the direct reads before it can be delivered.
                let mut lease = BufPool::global().get_dirty(plen);
                let take = staged.min(plen);
                lease[..take].copy_from_slice(&conn.buf[body_start..body_start + take]);
                conn.start = body_start + take;
                if take == plen {
                    deliver(conn.from_node, shared, &header, lease.freeze())?;
                    continue;
                }
                conn.direct = Some(DirectRead {
                    header,
                    lease,
                    have: take,
                });
                break;
            }
            if staged < plen {
                break; // await the rest of this small frame
            }
            let mut lease = BufPool::global().get_dirty(plen);
            lease.copy_from_slice(&conn.buf[body_start..body_start + plen]);
            conn.start = body_start + plen;
            deliver(conn.from_node, shared, &header, lease.freeze())?;
        }
        if conn.direct.is_some() {
            continue;
        }
        // Compact the partial tail to the front and refill from the socket.
        // The refill is capped at [`REFILL_READ_BYTES`] so a large payload
        // queued behind this read lands mostly in its lease, not in staging.
        if conn.start > 0 {
            conn.buf.copy_within(conn.start..conn.end, 0);
            conn.end -= conn.start;
            conn.start = 0;
        }
        let cap = (conn.end + REFILL_READ_BYTES).min(conn.buf.len());
        match stream.read(&mut conn.buf[conn.end..cap]) {
            // EOF: clean at a boundary, or the peer died mid-frame. The
            // partial tail is discarded; a reconnecting sender rewrites
            // whole frames, so no fragment survives. Benign either way.
            Ok(0) => return Err(Close::Benign),
            Ok(got) => conn.end += got,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(Close::Benign),
        }
    }
}

/// Assembles and delivers one frame into the endpoint's inbox.
fn deliver(
    from_node: usize,
    shared: &Shared,
    header: &FrameHeader,
    payload: Bytes,
) -> Result<(), Close> {
    shared
        .deliver(Envelope {
            from: from_node,
            src: header.src as usize,
            seq: header.seq,
            epoch: header.epoch,
            msg: assemble(header, payload),
        })
        .map_err(|()| Close::Benign) // local endpoint shut down first
}
