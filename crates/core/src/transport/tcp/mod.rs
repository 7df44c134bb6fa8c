//! The event-loop TCP transport: one poller thread per endpoint multiplexes
//! every peer socket in nonblocking mode.
//!
//! This is the zero-copy core of the comm plane (DESIGN.md §2.4). It runs
//! exactly **one** thread regardless of fabric size — the poller, never one
//! per peer — and moves payload bytes without intermediate copies:
//!
//! * **Accept path**: the listener is one more socket in the readiness set,
//!   accepted through the crate's one accept loop
//!   ([`Door`], which the metrics door runs too). An
//!   accepted connection holds only its 16-byte HELLO until the poller's
//!   [`HelloGate`](super::net::HelloGate) admits it; the HELLO is read
//!   without blocking, and a bad one (malformed, cut short, overdue after
//!   [`HEAD_TIMEOUT`](super::poll::HEAD_TIMEOUT), or the oldest past
//!   [`MAX_WAITING`](super::poll::MAX_WAITING) waiting) is dropped and
//!   counted in `poseidon_bad_hellos_total`, never fatal.
//! * **Send path**: `send_seq` encodes only the fixed 32-byte header
//!   ([`encode_header_stamped`]) and enqueues `(header, payload Bytes)` on the
//!   destination link's coalescing queue, waking the poller only if it
//!   sleeps; the sender never touches a socket. The poller is the only thread
//!   that writes one: it drains each queue with one `write_vectored` call
//!   spanning up to `MAX_IOV` `IoSlice`s — header and payload go to the
//!   socket straight from where they already live; no frame buffer is ever
//!   materialised.
//! * **Receive path**: small frames are parsed out of a per-connection
//!   staging buffer; payloads of `DIRECT_READ_MIN` bytes or more are read
//!   directly into a [`BufPool`](crate::pool::BufPool) lease which is frozen into the delivered
//!   [`Bytes`] — the runtime consumes the same allocation the kernel wrote
//!   into, and dropping it recycles the buffer for the next frame.
//! * **Co-resident peers share memory**: a peer in this process *and* on
//!   this endpoint's physical node (a worker and its colocated shard run as
//!   threads of one process; this endpoint itself) gets the [`Envelope`],
//!   payload `Bytes` included, pushed straight into its inbox through the
//!   poller's own delivery routine — the receiver reads the sender's buffer.
//!   Peers find each other in a process-wide registry keyed by the bound
//!   listening address, unique among live endpoints because the poller
//!   holds the listener for the endpoint's whole life. An endpoint registers
//!   before its first dial, resolves its co-resident peers once the initial
//!   mesh is up (each has registered by then, because it dialed us; its
//!   endpoint id and node map must match the spec), and withdraws on
//!   shutdown or drop. Peers are held weakly and an inbox closes at its own
//!   endpoint's shutdown, so a frame for a co-resident peer that has shut
//!   down is dropped, as its socket would drop it. A link is co-resident or
//!   socket-borne for its whole life, so per-pair order holds; co-resident
//!   pairs keep their idle HELLO sockets, and `sever_link` on them is the
//!   in-process fabric's no-op.
//!
//! The poller is the only thread that dials, severs or closes a mesh socket.
//! Its per-link state machine dials the initial mesh: every link starts
//! `Down`, never up, and dials with the fabric's capped exponential backoff
//! whether or not frames are queued, until `connect` returns or gives up at
//! `connect_timeout` (a failed attempt counts in
//! `poseidon_dial_retries_total`). Self-healing is the same machine: a
//! broken link moves `Up → Down`, redials (a fresh connection *generation*
//! in every HELLO, so the peer's `HelloGate` can drop duplicates
//! idempotently), and is declared `Dead` only after `reconnect_timeout` —
//! at which point queued frames are dropped and blocked senders are
//! released. A later send revives the link and the cycle restarts.
//! `sever_link` records a request on the link and wakes the poller, which
//! serves it before its next write on the link: it shuts its own stream
//! down and breaks the link as a hangup would.
//!
//! Backpressure is per link: a queue holds at most [`MAX_LINK_PENDING_BYTES`]
//! before `send_seq` blocks on a condvar that the poller signals as bytes
//! drain. Shutdown drains all live queues for up to `DRAIN_BUDGET` before
//! FIN-ing, so a clean shutdown never strands flushed-but-unsent frames.
//!
//! Accounting is send-side only and charged once, by the shared
//! [`EndpointCore`], when a frame is *committed* (enqueued on its link, or
//! pushed into a co-resident inbox): the ledger reflects
//! frames committed to the wire, exactly as the in-process transport counts
//! sends, so the bitwise-equivalence suites see identical ledgers. Loop-back
//! (same physical node) frames are never counted; between two processes on
//! one node they still cross a socket.
//!
//! The module map: this file is the sender handle ([`TcpTransport`], the
//! state it shares with the poller, the link queues); `registry` is the
//! process-wide registry of co-resident endpoints; `event_loop` is the
//! poller, with the accept path, the link state machine, the write path
//! and inbound frame reassembly.

mod event_loop;
mod registry;

use super::net::{self, TcpFabricSpec};
use super::poll::Door;
use super::sys;
use super::{
    EndpointCore, Envelope, LinkHealth, Message, TrafficCounters, Transport, TransportError,
};
use crate::metrics;
use crate::telemetry;
use crate::wire::{encode_header_stamped, FRAME_HEADER_BYTES};
use bytes::Bytes;
use event_loop::EventLoop;
use registry::{resolve_coresident, Registration};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes a single link queues before `send_seq` blocks awaiting drain.
const MAX_LINK_PENDING_BYTES: u64 = 64 * 1024 * 1024;

/// How often a blocked sender rechecks for shutdown while waiting for space.
const BACKPRESSURE_RECHECK: Duration = Duration::from_millis(100);

/// One frame awaiting (or mid-way through) its vectored write. `written`
/// counts bytes already on the socket, possibly reaching into the payload.
struct QueuedFrame {
    hdr: [u8; FRAME_HEADER_BYTES],
    payload: Bytes,
    written: usize,
}

impl QueuedFrame {
    fn len(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload.len()
    }
}

/// The coalescing write queue of one outbound link.
struct LinkQueue {
    frames: VecDeque<QueuedFrame>,
    /// Total frame bytes queued (backpressure accounting).
    bytes: u64,
    /// Set when the link was declared dead; the next send clears it and
    /// revives the redial state machine.
    dead: Option<String>,
}

/// Sender-facing half of a link: the queue plus the condvar the poller
/// signals when drained bytes open up space.
struct LinkShared {
    q: Mutex<LinkQueue>,
    space: Condvar,
    /// Mirror of `q.frames.len()`, updated under the queue lock but readable
    /// without it — the poller's per-iteration sweep consults this instead of
    /// taking every queue lock every loop (which scaled O(endpoints²) in
    /// lock traffic across the process).
    depth: AtomicU64,
    /// A pending `sever_link`: the poller shuts the link's connection down
    /// before its next write on it.
    sever: AtomicBool,
}

impl LinkShared {
    fn new() -> LinkShared {
        LinkShared {
            q: Mutex::new(LinkQueue {
                frames: VecDeque::new(),
                bytes: 0,
                dead: None,
            }),
            space: Condvar::new(),
            depth: AtomicU64::new(0),
            sever: AtomicBool::new(false),
        }
    }
}

/// State shared between the transport handle and the poller. Owns the
/// [`sys::Poller`] so its waker fd stays valid for as long as any sender
/// might signal it.
struct Shared {
    /// Identity, ledgers, epoch fence and last-frame tracker — everything
    /// that is not specific to sockets.
    core: EndpointCore,
    spec: TcpFabricSpec,
    /// Write queue per peer (`None` for our own slot).
    links: Vec<Option<LinkShared>>,
    /// Outbound links not yet up plus peers none of whose HELLOs the poller
    /// has admitted yet; `connect` returns once this reaches zero, and the
    /// initial mesh is up.
    unmet: AtomicUsize,
    reader_err: Mutex<Option<TransportError>>,
    /// The inbox's only sender, shared by the poller and co-resident
    /// senders; `None` from shutdown on, which closes the inbox.
    inbox: Mutex<Option<Sender<Envelope>>>,
    /// Envelopes put into the inbox so far; less the core's dequeue count
    /// this is the receive-queue depth.
    delivered: AtomicU64,
    down: AtomicBool,
    /// True while the poller is (about to be) blocked in `wait`; senders
    /// only pay the waker syscall when this is set.
    sleeping: AtomicBool,
    /// Set by senders after enqueueing; the poller swaps it before sleeping
    /// and skips the sleep when work arrived in the gap.
    dirty: AtomicBool,
    /// `(peer, "rx"|"tx", when)` of the last readiness event served.
    last_ready: Mutex<Option<(usize, &'static str, Instant)>>,
    poller: sys::Poller,
    /// Metrics-plane handles, resolved once at connect so the frame paths
    /// record registry-free: queue high-water gauges and the writev
    /// batch-size distribution.
    m_tx_queue_peak: metrics::Gauge,
    m_rx_queue_peak: metrics::Gauge,
    m_writev_batch: metrics::Histogram,
    /// This endpoint's link counts, owned registry cells:
    /// `poseidon_{dial_retries,reconnects,reaccepts,redials,dup_hellos}_total`.
    dial_retries: metrics::Counter,
    reconnected: metrics::Counter,
    reaccepted: metrics::Counter,
    redial_attempts: metrics::Counter,
    dup_hellos: metrics::Counter,
    /// Base instant of the `last_tx_ns` stamp (elapsed ns + 1, so 0 means
    /// "never") — send-side link staleness for timeout diagnostics.
    started: Instant,
    last_tx_ns: AtomicU64,
}

impl Shared {
    /// Has the poller look at the links: it skips its next sleep, and a
    /// sleeping poller is woken.
    fn poke(&self) {
        self.dirty.store(true, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            self.poller.waker().wake();
        }
    }

    /// Notes that a frame left just now (`last_tx_ns`).
    fn stamp_tx(&self) {
        let ns = self.started.elapsed().as_nanos() as u64 + 1;
        self.last_tx_ns.store(ns, Ordering::Relaxed);
    }

    /// Puts one envelope into this endpoint's inbox — the one delivery
    /// routine of the poller and of co-resident senders. `Err` once the
    /// inbox has closed.
    fn deliver(&self, env: Envelope) -> Result<(), ()> {
        let inbox = self.inbox.lock().expect("inbox lock");
        let tx = inbox.as_ref().ok_or(())?;
        // The receive-queue depth including this envelope. Saturating: the
        // two counters are read apart, so a burst of loop-back traffic
        // dequeued in between can overtake this thread's view of `delivered`.
        let delivered = self.delivered.fetch_add(1, Ordering::Relaxed) + 1;
        let queued = delivered.saturating_sub(self.core.dequeued());
        self.m_rx_queue_peak.set_max(queued);
        if telemetry::is_enabled() {
            telemetry::instant("rx.frame", env.from as u64, env.msg.wire_bytes());
            telemetry::counter("rx.queue", env.from as u64, queued);
        }
        tx.send(env).map_err(|_| ())
    }
}

/// A TCP transport endpoint driven by a single readiness event loop.
///
/// Thread budget is O(1) in fabric size: one poller, whatever `endpoints()`
/// says — never a thread per peer.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// Per peer, the co-resident endpoint its frames are handed to in
    /// memory (our own slot always); `None` where a socket carries them.
    coresident: Vec<Option<Weak<Shared>>>,
    /// Our registry entry; withdrawn first thing on shutdown or drop.
    registration: Option<Registration>,
    inbox: Receiver<Envelope>,
    /// The poller; it returns what the initial mesh still lacked when it
    /// stopped.
    poller_thread: Option<JoinHandle<Option<String>>>,
    down: bool,
}

impl TcpTransport {
    /// Binds this endpoint's listener from the spec and joins the mesh.
    /// Blocks until connections to and from every peer are up, or until
    /// `spec.connect_timeout`.
    pub fn connect(spec: &TcpFabricSpec, me: usize) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(spec.addrs[me])
            .map_err(|e| TransportError::Handshake(format!("bind {}: {e}", spec.addrs[me])))?;
        Self::connect_with_listener(spec, me, listener, None)
    }

    /// Joins the mesh through an already-bound listener (for ephemeral-port
    /// fabrics inside one process). `shared_counters` lets colocated test
    /// endpoints write one ledger; `None` gives this endpoint its own ledger
    /// holding only frames *it* sends — the multi-process configuration,
    /// merged later via snapshots.
    pub fn connect_with_listener(
        spec: &TcpFabricSpec,
        me: usize,
        listener: TcpListener,
        shared_counters: Option<Arc<TrafficCounters>>,
    ) -> Result<Self, TransportError> {
        let n = spec.addrs.len();
        assert_eq!(n, spec.node_of_endpoint.len(), "malformed fabric spec");
        assert!(me < n, "endpoint id {me} out of range for {n} endpoints");
        let deadline = Instant::now() + spec.connect_timeout;
        let counters = shared_counters
            .unwrap_or_else(|| Arc::new(TrafficCounters::new(spec.physical_nodes())));

        let (inbox_tx, inbox) = channel();
        let poller = sys::Poller::new()
            .map_err(|e| TransportError::Handshake(format!("create poller: {e}")))?;
        let ep = me.to_string();
        let labels: [(&'static str, &str); 1] = [("endpoint", &ep)];
        let owned = |name| metrics::global().owned_counter(name, &labels);
        let shared = Arc::new(Shared {
            core: EndpointCore::new(me, Arc::from(spec.node_of_endpoint.as_slice()), counters),
            spec: spec.clone(),
            links: (0..n).map(|i| (i != me).then(LinkShared::new)).collect(),
            unmet: AtomicUsize::new(2 * (n - 1)),
            reader_err: Mutex::new(None),
            inbox: Mutex::new(Some(inbox_tx)),
            delivered: AtomicU64::new(0),
            down: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            last_ready: Mutex::new(None),
            poller,
            m_tx_queue_peak: metrics::gauge("poseidon_tx_queue_peak_frames", &labels),
            m_rx_queue_peak: metrics::gauge("poseidon_rx_queue_peak_frames", &labels),
            m_writev_batch: metrics::histogram("poseidon_writev_batch_frames", &labels),
            dial_retries: owned("poseidon_dial_retries_total"),
            reconnected: owned("poseidon_reconnects_total"),
            reaccepted: owned("poseidon_reaccepts_total"),
            redial_attempts: owned("poseidon_redials_total"),
            dup_hellos: owned("poseidon_dup_hellos_total"),
            started: Instant::now(),
            last_tx_ns: AtomicU64::new(0),
        });

        // Registered before the first dial, so every peer that has dialed us
        // can be found once our initial mesh is up.
        let registration = listener
            .local_addr()
            .ok()
            .map(|addr| Registration::new(addr, &shared));
        let door = Door::new(listener, &shared.poller, owned("poseidon_bad_hellos_total"))
            .map_err(|e| TransportError::Handshake(format!("watch listener: {e}")))?;

        // The poller dials every peer and admits their HELLOs; it unparks us
        // once the initial mesh is up.
        let poller_thread = {
            let shared = Arc::clone(&shared);
            let connector = std::thread::current();
            std::thread::spawn(move || EventLoop::new(shared, door, connector).run())
        };
        let mut ep = Self {
            shared,
            coresident: Vec::new(),
            registration,
            inbox,
            poller_thread: Some(poller_thread),
            down: false,
        };
        while ep.shared.unmet.load(Ordering::SeqCst) > 0 {
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
                ep.signal_down();
                let missing = ep.poller_thread.take().and_then(|h| h.join().ok());
                let why = missing
                    .flatten()
                    .unwrap_or_else(|| "mesh incomplete".into());
                let why = format!("endpoint {me}: {why} by the connect deadline");
                return Err(TransportError::Handshake(why));
            };
            std::thread::park_timeout(wait);
        }
        ep.coresident = resolve_coresident(&ep.shared);
        Ok(ep)
    }

    /// Successful outbound reconnects so far.
    pub fn reconnect_count(&self) -> u64 {
        self.shared.reconnected.get()
    }

    /// Inbound streams admitted after the initial mesh.
    pub fn reaccept_count(&self) -> u64 {
        self.shared.reaccepted.get()
    }

    /// Duplicate/stale HELLOs the (peer, generation) gate rejected.
    pub fn dup_hello_count(&self) -> u64 {
        self.shared.dup_hellos.get()
    }

    /// What a failed receive should say. A reader that hit a protocol
    /// violation explains the silence better than "timeout" or "closed";
    /// otherwise a timeout gains the context only this transport has: how
    /// often the poller redialed, is traffic stuck in our write queues, when
    /// did readiness last arrive, and how stale is the link in each
    /// direction (retransmits are filled in by the reliable layer, which
    /// owns that counter).
    fn enrich(&self, err: TransportError) -> TransportError {
        let shared = &self.shared;
        if let Some(e) = shared.reader_err.lock().expect("reader error lock").clone() {
            return e;
        }
        let TransportError::Timeout(mut diag) = err else {
            return err;
        };
        diag.attempts = shared.redial_attempts.get();
        let (mut queued_frames, mut queued_bytes) = (0, 0);
        for link in shared.links.iter().flatten() {
            queued_frames += link.depth.load(Ordering::Relaxed);
            queued_bytes += link.q.lock().expect("link queue").bytes;
        }
        diag.link = Some(LinkHealth {
            queued_frames,
            queued_bytes,
            last_ready: shared
                .last_ready
                .lock()
                .expect("last ready lock")
                .map(|(peer, dir, at)| (peer, dir, at.elapsed())),
            last_tx_age: match shared.last_tx_ns.load(Ordering::Relaxed) {
                0 => None,
                ns => Some(Duration::from_nanos(
                    (shared.started.elapsed().as_nanos() as u64 + 1).saturating_sub(ns),
                )),
            },
            last_rx_age: diag.last_frame.as_ref().map(|last| last.since),
            retransmits: 0,
        });
        TransportError::Timeout(diag)
    }

    /// Commits one frame to the link for `to`: waits out backpressure, then
    /// enqueues it for the poller, which owns every write. `Closed` once
    /// shutdown began — nothing is enqueued, stamped or accounted then.
    fn commit(
        &self,
        to: usize,
        hdr: [u8; FRAME_HEADER_BYTES],
        payload: Bytes,
    ) -> Result<(), TransportError> {
        let shared = &self.shared;
        let link = shared.links[to]
            .as_ref()
            .expect("a socket-borne peer has a link");
        let frame_len = (FRAME_HEADER_BYTES + payload.len()) as u64;
        let mut q = link.q.lock().expect("link queue");
        while q.bytes >= MAX_LINK_PENDING_BYTES
            && q.dead.is_none()
            && !shared.down.load(Ordering::SeqCst)
        {
            let (guard, _) = link
                .space
                .wait_timeout(q, BACKPRESSURE_RECHECK)
                .expect("link queue");
            q = guard;
        }
        if shared.down.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        shared.stamp_tx();
        // A send on a dead link revives it: the poller notices the
        // non-empty queue and restarts the redial state machine with a
        // fresh reconnect budget.
        q.dead = None;
        // The poller coalesces this frame with its neighbours into one
        // vectored syscall.
        q.frames.push_back(QueuedFrame {
            hdr,
            payload,
            written: 0,
        });
        q.bytes += frame_len;
        link.depth.fetch_add(1, Ordering::Relaxed);
        let depth = q.frames.len() as u64;
        drop(q);
        shared.m_tx_queue_peak.set_max(depth);
        if telemetry::is_enabled() {
            telemetry::counter("tx.queue", to as u64, depth);
        }
        shared.poke();
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> usize {
        self.shared.core.node()
    }

    fn endpoint_id(&self) -> usize {
        self.shared.core.me()
    }

    fn endpoints(&self) -> usize {
        self.shared.core.endpoints()
    }

    fn traffic(&self) -> &Arc<TrafficCounters> {
        self.shared.core.traffic()
    }

    fn send_seq(&self, to: usize, msg: Message, seq: u32) -> Result<(), TransportError> {
        let shared = &self.shared;
        let core = &shared.core;
        let frame_len = msg.wire_bytes();
        let epoch = core.current_epoch();
        if let Some(peer) = self.coresident.get(to).ok_or(TransportError::Closed)? {
            // Co-resident (ourselves included): the envelope itself goes into
            // the peer's inbox, and past the shutdown check nothing refuses
            // it. A peer that has shut down drops it, as its socket would.
            if shared.down.load(Ordering::SeqCst) {
                return Err(TransportError::Closed);
            }
            shared.stamp_tx();
            core.note_sent(to, frame_len);
            if let Some(peer) = peer.upgrade() {
                let _ = peer.deliver(Envelope {
                    from: core.node(),
                    src: core.me(),
                    seq,
                    epoch,
                    msg,
                });
            }
            return Ok(());
        }
        let hdr = encode_header_stamped(&msg, core.me() as u32, seq, epoch);
        self.commit(to, hdr, msg.into_payload())?;
        // The commit point: the frame is enqueued. A send refused above is
        // never accounted.
        core.note_sent(to, frame_len);
        Ok(())
    }

    fn sever_link(&self, to: usize) -> Result<(), TransportError> {
        // No socket carries a co-resident peer's frames.
        if self.coresident.get(to).is_some_and(Option::is_some) {
            return Ok(());
        }
        // The poller owns the socket: it serves the request before its next
        // write on the link, so no frame sent after this returns travels on
        // the severed connection.
        if let Some(Some(link)) = self.shared.links.get(to) {
            link.sever.store(true, Ordering::SeqCst);
            telemetry::instant("sever", to as u64, 0);
            self.shared.poke();
        }
        Ok(())
    }

    fn recv(&self) -> Result<Envelope, TransportError> {
        self.shared
            .core
            .recv(&self.inbox)
            .map_err(|e| self.enrich(e))
    }

    fn try_recv(&self) -> Result<Option<Envelope>, TransportError> {
        self.shared
            .core
            .try_recv(&self.inbox)
            .map_err(|e| self.enrich(e))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError> {
        self.shared
            .core
            .recv_timeout(&self.inbox, timeout)
            .map_err(|e| self.enrich(e))
    }

    fn set_epoch(&self, epoch: u32) {
        self.shared.core.set_epoch(epoch);
    }

    fn current_epoch(&self) -> u32 {
        self.shared.core.current_epoch()
    }

    fn shutdown(&mut self) -> Result<(), TransportError> {
        if !self.signal_down() {
            return Ok(());
        }
        // The poller drains live queues (bounded by DRAIN_BUDGET), FINs, and
        // exits.
        if let Some(handle) = self.poller_thread.take() {
            let _ = handle.join();
        }
        // Closes the inbox: `recv` drains what arrived, then says `Closed`.
        *self.shared.inbox.lock().expect("inbox lock") = None;
        Ok(())
    }
}

impl TcpTransport {
    /// Withdraws our registry entry, then unblocks senders stuck in
    /// backpressure and the poller itself. `false` if already done.
    fn signal_down(&mut self) -> bool {
        if std::mem::replace(&mut self.down, true) {
            return false;
        }
        self.registration = None;
        self.shared.down.store(true, Ordering::SeqCst);
        for link in self.shared.links.iter().flatten() {
            link.space.notify_all();
        }
        self.shared.poller.waker().wake();
        true
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort teardown on panic paths: signal the poller but do not
        // block joining it.
        self.signal_down();
    }
}

#[cfg(test)]
mod tests {
    use super::event_loop::POLL_TICK;
    use super::net::HELLO_BYTES;
    use super::registry::REGISTRY;
    use super::*;
    use crate::transport::poll::{
        HEAD_TIMEOUT as HELLO_TIMEOUT, MAX_WAITING as MAX_PENDING_HELLOS,
    };
    use crate::wire::LAYER_GRANULAR_CHUNK;
    use std::io::{Read, Write};
    use std::net::Ipv4Addr;
    use std::net::SocketAddr;

    fn grad(iter: u64, payload: usize) -> Message {
        Message::GradChunk {
            iter,
            layer: 1,
            chunk: LAYER_GRANULAR_CHUNK,
            codec: crate::wire::Codec::Identity,
            data: Bytes::from(vec![7u8; payload]),
        }
    }

    fn quick_spec(addrs: Vec<SocketAddr>, node_of_endpoint: Vec<usize>) -> TcpFabricSpec {
        TcpFabricSpec {
            addrs,
            node_of_endpoint,
            connect_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            reconnect_timeout: Duration::from_secs(5),
        }
    }

    /// Builds an ephemeral-port fabric and runs `f(endpoint)` on one thread
    /// per endpoint, all sharing one ledger.
    fn with_fabric(
        node_of_endpoint: &[usize],
        f: impl Fn(TcpTransport) + Send + Sync,
    ) -> Arc<TrafficCounters> {
        let (listeners, addrs) =
            super::super::bind_ephemeral(node_of_endpoint.len()).expect("bind");
        let spec = quick_spec(addrs, node_of_endpoint.to_vec());
        let counters = Arc::new(TrafficCounters::new(spec.physical_nodes()));
        std::thread::scope(|s| {
            for (me, listener) in listeners.into_iter().enumerate() {
                let spec = spec.clone();
                let counters = Arc::clone(&counters);
                let f = &f;
                s.spawn(move || {
                    let ep =
                        TcpTransport::connect_with_listener(&spec, me, listener, Some(counters))
                            .expect("mesh");
                    f(ep);
                });
            }
        });
        counters
    }

    #[test]
    fn severed_link_reconnects_and_redelivers() {
        with_fabric(&[0, 1], |mut ep| {
            if ep.endpoint_id() == 0 {
                ep.send(1, grad(0, 32)).unwrap();
                // Kill our own outbound socket, then send again: the poller
                // must notice, redial, and rewrite queued frames whole.
                ep.sever_link(1).unwrap();
                ep.send(1, grad(1, 32)).unwrap();
                // Recovery is asynchronous (it lives on the poller thread).
                let deadline = Instant::now() + Duration::from_secs(10);
                while ep.reconnect_count() == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert_eq!(ep.reconnect_count(), 1, "exactly one reconnect");
                let snap = metrics::snapshot();
                let dialer = snap.value("poseidon_reconnects_total", &[("endpoint", "0")]);
                assert!(dialer >= Some(1), "the family counts the redial");
            } else {
                let mut iters = Vec::new();
                while iters.len() < 2 {
                    let env = ep
                        .recv_timeout(Duration::from_secs(10))
                        .expect("both frames must arrive despite the sever");
                    iters.push(env.msg.iter());
                }
                iters.sort_unstable();
                assert_eq!(iters, vec![0, 1]);
                assert_eq!(ep.reaccept_count(), 1, "the poller admitted the redial");
                let snap = metrics::snapshot();
                let accepted = snap.value("poseidon_reaccepts_total", &[("endpoint", "1")]);
                assert!(accepted >= Some(1), "the family counts the re-accept");
            }
            ep.shutdown().unwrap();
        });
    }

    #[test]
    fn every_sever_of_twenty_in_a_row_reconnects_and_loses_nothing() {
        let eps = mesh(&[0, 1]);
        for round in 0..20u64 {
            eps[0].sever_link(1).unwrap();
            eps[0].send(1, grad(round, 16)).unwrap();
            let env = eps[1]
                .recv_timeout(Duration::from_secs(5))
                .expect("the frame sent after the sever arrives");
            assert_eq!(env.msg.iter(), round, "frames arrive once, in order");
            // The frame travelled on a new connection, so its reconnect has
            // been counted.
            let deadline = Instant::now() + Duration::from_secs(5);
            while eps[0].reconnect_count() <= round && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(eps[0].reconnect_count(), round + 1, "round {round}");
        }
        assert!(
            eps[1].recv_timeout(Duration::from_millis(200)).is_err(),
            "no frame delivered twice"
        );
        shutdown_all(eps);
    }

    #[test]
    fn a_late_listener_is_dialed_with_retries_and_no_reconnect() {
        let (mut listeners, addrs) = super::super::bind_ephemeral(3).expect("bind");
        let spec = quick_spec(addrs, vec![0, 1, 2]);
        // Endpoint 2's port is closed while its peers start dialing it.
        drop(listeners.pop());
        let eps = std::thread::scope(|s| {
            let early: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(me, l)| {
                    let spec = &spec;
                    s.spawn(move || {
                        TcpTransport::connect_with_listener(spec, me, l, None).expect("mesh")
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(300));
            let l = TcpListener::bind(spec.addrs[2]).expect("bind the late port again");
            let late = TcpTransport::connect_with_listener(&spec, 2, l, None).expect("mesh");
            let mut eps: Vec<_> = early.into_iter().map(|h| h.join().unwrap()).collect();
            eps.push(late);
            eps
        });
        let snap = metrics::snapshot();
        for (me, ep) in eps.iter().enumerate().take(2) {
            assert!(ep.shared.dial_retries.get() > 0, "endpoint {me} retried");
            let family = snap.value(
                "poseidon_dial_retries_total",
                &[("endpoint", &me.to_string())],
            );
            assert!(family > Some(0), "endpoint {me}: {family:?}");
        }
        assert!(
            eps.iter().all(|ep| ep.reconnect_count() == 0),
            "no reconnect"
        );
        eps[0].send(2, grad(6, 16)).unwrap();
        let env = eps[2].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((env.src, env.msg.iter()), (0, 6));
        shutdown_all(eps);
    }

    /// Frame `i` of the sever test: 1–3 MiB, every byte derived from `i`.
    fn big_frame(i: u64) -> Bytes {
        let len = (1 << 20) + i as usize * (2 << 20) / 15;
        let data: Vec<u8> = (0..len)
            .map(|j| (j as u64 * 31 + i * 7 + (j >> 12) as u64) as u8)
            .collect();
        Bytes::from(data)
    }

    /// Waits (at most 5 s) until the head frame queued on `ep`'s link to
    /// `to` is partly on the socket; `false` if the whole queue reached the
    /// socket first.
    fn await_partial_head(ep: &TcpTransport, to: usize) -> bool {
        let link = ep.shared.links[to].as_ref().expect("a socket-borne link");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && link.depth.load(Ordering::Relaxed) > 0 {
            let q = link.q.lock().unwrap();
            if q.frames.front().is_some_and(|f| f.written > 0) {
                return true;
            }
            drop(q);
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn severed_link_rewrites_multi_mib_frames_whole() {
        const FRAMES: u64 = 16;
        let eps = mesh(&[0, 1]);
        let (e0, e1) = (&eps[0], &eps[1]);
        let send = |i: u64| {
            let msg = Message::GradChunk {
                iter: i,
                layer: 1,
                chunk: LAYER_GRANULAR_CHUNK,
                codec: crate::wire::Codec::Identity,
                data: big_frame(i),
            };
            e0.send(1, msg).unwrap();
        };
        // Sever after the 4th and after the 10th frame. Holding endpoint 1's
        // inbox blocks its poller at the next delivery, so the socket backs
        // up. The first sever usually finds frames 0–3 wholly in the
        // kernel's socket buffers (each must arrive once, none rewritten);
        // the second, with 11 MiB behind the stalled reader, cuts the head
        // frame, which must be rewound and rewritten whole.
        let mut cut_mid_frame = 0;
        for segment in [0..4, 4..10] {
            let stall = e1.shared.inbox.lock().unwrap();
            segment.for_each(send);
            cut_mid_frame += usize::from(await_partial_head(e0, 1));
            e0.sever_link(1).unwrap();
            drop(stall);
        }
        (10..FRAMES).for_each(send);
        // Order across connection generations is not guaranteed, so compare
        // as a set.
        let mut got = Vec::new();
        while got.len() < FRAMES as usize {
            let env = e1
                .recv_timeout(Duration::from_secs(20))
                .expect("every frame arrives despite the severs");
            got.push((env.msg.iter(), env.msg.payload().clone()));
        }
        got.sort_unstable_by_key(|(i, _)| *i);
        for (i, (iter, data)) in (0..FRAMES).zip(&got) {
            assert_eq!(*iter, i, "frame {i} exactly once");
            assert!(*data == big_frame(i), "frame {i} byte-exact");
        }
        assert!(
            e1.recv_timeout(Duration::from_millis(200)).is_err(),
            "no frame delivered twice"
        );
        assert!(e0.reconnect_count() >= 1, "the link was redialed");
        assert!(cut_mid_frame >= 1, "no sever landed mid-frame");
        shutdown_all(eps);
    }

    #[test]
    fn recv_timeout_attaches_poller_context() {
        with_fabric(&[0, 1], |mut ep| {
            let err = ep.recv_timeout(Duration::from_millis(40)).unwrap_err();
            let TransportError::Timeout(diag) = err else {
                panic!("expected Timeout");
            };
            let l = diag.link.expect("event-loop transport reports link state");
            assert_eq!(l.queued_frames, 0, "nothing was queued");
            assert_eq!(l.queued_bytes, 0);
            ep.shutdown().unwrap();
        });
    }

    #[test]
    fn duplicate_hello_is_rejected_idempotently() {
        let (mut listeners, addrs) = super::super::bind_ephemeral(2).expect("bind");
        let spec = quick_spec(addrs, vec![0, 1]);
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        std::thread::scope(|s| {
            let spec1 = spec.clone();
            let h1 = s.spawn(move || {
                TcpTransport::connect_with_listener(&spec1, 1, l1, None).expect("mesh")
            });
            let mut ep0 = TcpTransport::connect_with_listener(&spec, 0, l0, None).expect("mesh");
            let mut ep1 = h1.join().expect("endpoint 1");
            // Replay endpoint 0's original generation-1 dial: the gate has
            // already admitted that generation, so this HELLO must be
            // dropped without installing a second stream.
            let dup = net::dial_once(spec.addrs[1], 0, 1, Duration::from_secs(1)).expect("dial");
            let deadline = Instant::now() + Duration::from_secs(5);
            while ep1.dup_hello_count() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(ep1.dup_hello_count(), 1, "stale HELLO counted and dropped");
            assert_eq!(ep1.reaccept_count(), 0, "no adoption for a duplicate");
            // The mesh still works, and nothing is delivered twice.
            ep0.send(1, grad(5, 16)).unwrap();
            let env = ep1.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.msg.iter(), 5);
            assert!(ep1.try_recv().unwrap().is_none(), "no duplicate delivery");
            drop(dup);
            ep0.shutdown().unwrap();
            ep1.shutdown().unwrap();
        });
    }

    /// Severs endpoint 0's link to endpoint 1 and sends: the redial and the
    /// frame must land within a second.
    fn assert_redial_lands(eps: &[TcpTransport]) {
        eps[0].sever_link(1).unwrap();
        eps[0].send(1, grad(3, 16)).unwrap();
        let env = eps[1]
            .recv_timeout(Duration::from_secs(1))
            .expect("the redial lands within 1 s");
        assert_eq!(env.msg.iter(), 3);
    }

    #[test]
    fn a_stalled_hello_does_not_hold_back_a_redial() {
        let eps = mesh(&[0, 1]);
        let mut stalled = TcpStream::connect(eps[1].shared.spec.addrs[1]).unwrap();
        stalled.write_all(&net::hello_bytes(0, 9)[..3]).unwrap();
        assert_redial_lands(&eps);
        shutdown_all(eps);
    }

    #[test]
    fn a_hello_flood_closes_the_oldest_and_admits_the_redial() {
        let eps = mesh(&[0, 1]);
        let addr = eps[1].shared.spec.addrs[1];
        let mut silent: Vec<TcpStream> = (0..MAX_PENDING_HELLOS + 2)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        assert_redial_lands(&eps);
        let oldest = &mut silent[0];
        oldest
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(oldest.read(&mut byte).expect("closed over the cap"), 0);
        shutdown_all(eps);
    }

    #[test]
    fn bad_and_stalled_hellos_in_the_backlog_do_not_fail_connect() {
        let (listeners, addrs) = super::super::bind_ephemeral(2).expect("bind");
        let spec = quick_spec(addrs, vec![0, 1]);
        // First in endpoint 1's accept backlog, before either connects.
        let mut garbage = TcpStream::connect(spec.addrs[1]).unwrap();
        garbage.write_all(&[0xAB; HELLO_BYTES]).unwrap();
        let mut stalled = TcpStream::connect(spec.addrs[1]).unwrap();
        let eps = mesh_on(&spec, listeners);
        let meshed = Instant::now();
        stalled
            .set_read_timeout(Some(HELLO_TIMEOUT + POLL_TICK))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(stalled.read(&mut byte).expect("closed at its deadline"), 0);
        assert!(meshed.elapsed() <= HELLO_TIMEOUT + POLL_TICK);
        let bad = metrics::snapshot().value("poseidon_bad_hellos_total", &[("endpoint", "1")]);
        assert!(bad >= Some(2), "both bad HELLOs counted: {bad:?}");
        eps[0].send(1, grad(4, 16)).unwrap();
        let env = eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.msg.iter(), 4);
        shutdown_all(eps);
    }

    #[test]
    fn connect_times_out_without_peers() {
        let (listeners, addrs) = super::super::bind_ephemeral(2).expect("bind");
        let mut spec = quick_spec(addrs, vec![0, 1]);
        spec.connect_timeout = Duration::from_millis(200);
        // Endpoint 1 never shows up.
        drop(listeners);
        let l = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
        spec.addrs[0] = l.local_addr().unwrap();
        let err = match TcpTransport::connect_with_listener(&spec, 0, l, None) {
            Ok(_) => panic!("mesh connect must fail without peers"),
            Err(e) => e,
        };
        assert!(matches!(err, TransportError::Handshake(_)), "{err:?}");
    }

    /// A mesh of one thread per endpoint over `listeners`, in index order.
    fn mesh_on(spec: &TcpFabricSpec, listeners: Vec<TcpListener>) -> Vec<TcpTransport> {
        std::thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(me, l)| {
                    s.spawn(move || {
                        TcpTransport::connect_with_listener(spec, me, l, None).expect("mesh")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("endpoint"))
                .collect()
        })
    }

    fn mesh(nodes: &[usize]) -> Vec<TcpTransport> {
        let (listeners, addrs) = super::super::bind_ephemeral(nodes.len()).expect("bind");
        mesh_on(&quick_spec(addrs, nodes.to_vec()), listeners)
    }

    fn shutdown_all(eps: Vec<TcpTransport>) {
        for mut ep in eps {
            ep.shutdown().unwrap();
        }
    }

    fn registered(addr: SocketAddr) -> bool {
        REGISTRY.lock().unwrap().iter().any(|(a, _)| *a == addr)
    }

    /// The peers `ep` hands frames to in memory, after checking that each
    /// resolved handle is the endpoint of `mesh` at that index.
    fn coresident_in(ep: &TcpTransport, mesh: &[TcpTransport]) -> Vec<usize> {
        let mut peers = Vec::new();
        for (peer, handle) in ep.coresident.iter().enumerate() {
            if let Some(handle) = handle {
                let resolved = handle.upgrade().expect("a live peer");
                assert!(Arc::ptr_eq(&resolved, &mesh[peer].shared), "foreign peer");
                peers.push(peer);
            }
        }
        peers
    }

    #[test]
    fn meshes_with_one_node_map_never_deliver_into_each_other() {
        let nodes = [0, 1, 0, 1];
        let meshes = [mesh(&nodes), mesh(&nodes)];
        for m in &meshes {
            let resolved: Vec<_> = m.iter().map(|ep| coresident_in(ep, m)).collect();
            assert_eq!(resolved, [[0, 2], [1, 3], [0, 2], [1, 3]]);
        }
        let sends = [(0, 2), (2, 0), (1, 3), (3, 1), (0, 1), (2, 2)];
        for (tag, m) in meshes.iter().enumerate() {
            for &(from, to) in &sends {
                m[from].send(to, grad(tag as u64, 64)).unwrap();
            }
        }
        for (tag, m) in meshes.iter().enumerate() {
            for (to, ep) in m.iter().enumerate() {
                for _ in sends.iter().filter(|&&(_, t)| t == to) {
                    let env = ep.recv_timeout(Duration::from_secs(10)).unwrap();
                    assert_eq!(env.msg.iter(), tag as u64, "endpoint {to} of mesh {tag}");
                }
                assert!(ep.try_recv().unwrap().is_none(), "a frame too many");
            }
        }
        for m in meshes {
            shutdown_all(m);
        }
    }

    #[test]
    fn dropped_endpoint_is_unregistered_and_its_port_reused() {
        let nodes = [0, 0];
        let first = mesh(&nodes);
        let addrs = first[0].shared.spec.addrs.clone();
        assert!(addrs.iter().all(|&a| registered(a)));
        drop(first);
        assert!(!addrs.iter().any(|&a| registered(a)), "still registered");
        // The ports free up once the old pollers notice the drop.
        let deadline = Instant::now() + Duration::from_secs(10);
        let listeners = addrs
            .iter()
            .map(|&a| loop {
                match TcpListener::bind(a) {
                    Ok(l) => break l,
                    Err(e) if Instant::now() >= deadline => panic!("rebind {a}: {e}"),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })
            .collect();
        let second = mesh_on(&quick_spec(addrs, nodes.to_vec()), listeners);
        assert_eq!(coresident_in(&second[0], &second), [0, 1]);
        second[0].send(1, grad(7, 16)).unwrap();
        let env = second[1].recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!((env.src, env.msg.iter()), (0, 7));
        shutdown_all(second);
    }

    /// Endpoint 0 of a fabric with node map `nodes` whose other slots name
    /// `peers`; the test HELLOs it as every other endpoint id so that its
    /// connect completes.
    fn lone_endpoint(nodes: &[usize], peers: &[SocketAddr]) -> TcpTransport {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let me = listener.local_addr().unwrap();
        let addrs = std::iter::once(me).chain(peers.iter().copied()).collect();
        let spec = quick_spec(addrs, nodes.to_vec());
        std::thread::scope(|s| {
            let spec = &spec;
            let ep = s.spawn(move || {
                TcpTransport::connect_with_listener(spec, 0, listener, None).expect("mesh")
            });
            let _hellos: Vec<TcpStream> = (1..nodes.len())
                .map(|peer| net::dial_once(me, peer, 1, Duration::from_secs(5)).expect("dial"))
                .collect();
            ep.join().expect("endpoint")
        })
    }

    #[test]
    fn a_live_endpoint_with_another_id_or_node_map_is_not_coresident() {
        let other = mesh(&[0, 1, 0, 1]);
        let at = |id: usize| other[id].shared.spec.addrs[id];
        // Slot 2 names the other mesh's endpoint 0: same node map and node,
        // another id.
        let mut by_id = lone_endpoint(&[0, 1, 0, 1], &[at(1), at(0), at(3)]);
        // Slot 2 names the other mesh's endpoint 2: same id, same node, but
        // endpoint 3 lives elsewhere in this node map.
        let mut by_map = lone_endpoint(&[0, 1, 0, 2], &[at(1), at(2), at(3)]);
        for (ep, peer) in [(&by_id, 2), (&by_map, 2)] {
            assert!(ep.coresident[peer].is_none(), "slot {peer} resolved");
            assert!(ep.coresident[0].is_some(), "self is always co-resident");
        }
        // The frame takes the socket, whose HELLO endpoint 0 refuses as its
        // own: it never reaches endpoint 0's inbox.
        by_id.send(2, grad(9, 64)).unwrap();
        assert!(other[0].recv_timeout(Duration::from_millis(100)).is_err());
        by_id.shutdown().unwrap();
        by_map.shutdown().unwrap();
        shutdown_all(other);
    }
}
