//! The event-loop TCP transport: one poller thread per endpoint multiplexes
//! every peer socket in nonblocking mode.
//!
//! This is the zero-copy core of the comm plane (DESIGN.md §2.4). It runs
//! exactly **one** thread regardless of fabric size — the poller, never one
//! per peer — and moves payload bytes without intermediate copies:
//!
//! * **Accept path**: the listener is one more socket in the readiness set.
//!   An accepted connection holds only its 16-byte HELLO until the poller's
//!   [`HelloGate`] admits it; the HELLO is read without blocking, and a bad
//!   one (malformed, overdue after [`HELLO_TIMEOUT`], or the oldest past
//!   [`MAX_PENDING_HELLOS`] waiting) is dropped and counted, never fatal.
//! * **Send path**: `send_seq` encodes only the fixed 32-byte header
//!   ([`encode_header_stamped`]) and enqueues `(header, payload Bytes)` on the
//!   destination link's coalescing queue, waking the poller only if it
//!   sleeps; the sender never touches a socket. The poller is the only thread
//!   that writes one: it drains each queue with one `write_vectored` call
//!   spanning up to [`MAX_IOV`] `IoSlice`s — header and payload go to the
//!   socket straight from where they already live; no frame buffer is ever
//!   materialised.
//! * **Receive path**: small frames are parsed out of a per-connection
//!   staging buffer; payloads of [`DIRECT_READ_MIN`] bytes or more are read
//!   directly into a [`BufPool`] lease which is frozen into the delivered
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
//! Self-healing lives in the poller's per-link state machine: a broken link
//! moves `Up → Down`, redials with the fabric's capped exponential backoff
//! (a fresh connection *generation* in every HELLO, so the peer's
//! [`HelloGate`] can drop duplicates idempotently), and is declared `Dead`
//! only after `reconnect_timeout` — at which point queued frames are dropped
//! and blocked senders are released. A later send revives the link and the
//! cycle restarts.
//!
//! Backpressure is per link: a queue holds at most [`MAX_LINK_PENDING_BYTES`]
//! before `send_seq` blocks on a condvar that the poller signals as bytes
//! drain. Shutdown drains all live queues for up to [`DRAIN_BUDGET`] before
//! FIN-ing, so a clean shutdown never strands flushed-but-unsent frames.
//!
//! Accounting is send-side only and charged once, by the shared
//! [`EndpointCore`], when a frame is *committed* (enqueued on its link, or
//! pushed into a co-resident inbox): the ledger reflects
//! frames committed to the wire, exactly as the in-process transport counts
//! sends, so the bitwise-equivalence suites see identical ledgers. Loop-back
//! (same physical node) frames are never counted; between two processes on
//! one node they still cross a socket.

use super::net::{self, HelloGate, TcpFabricSpec, HELLO_BYTES};
use super::sys;
use super::{
    Backoff, EndpointCore, Envelope, LinkHealth, Message, TrafficCounters, Transport,
    TransportError,
};
use crate::metrics;
use crate::pool::BufPool;
use crate::telemetry;
use crate::wire::{assemble, encode_header_stamped, parse_header, FrameHeader, FRAME_HEADER_BYTES};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

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

/// Bytes a single link queues before `send_seq` blocks awaiting drain.
const MAX_LINK_PENDING_BYTES: u64 = 64 * 1024 * 1024;

/// How often a blocked sender rechecks for shutdown while waiting for space.
const BACKPRESSURE_RECHECK: Duration = Duration::from_millis(100);

/// Poller safety-net tick: the longest the loop sleeps with no deadline.
const POLL_TICK: Duration = Duration::from_millis(250);

/// Per-attempt connect timeout of the poller's inline redial. Kept short so
/// one dead peer cannot stall service of the live ones.
const REDIAL_ATTEMPT_TIMEOUT: Duration = Duration::from_millis(250);

/// Budget for flushing live queues during shutdown before FIN.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// How long an accepted connection may take to deliver its whole HELLO.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Accepted connections that may wait for their HELLO at once; a new one
/// over the cap closes the oldest.
const MAX_PENDING_HELLOS: usize = 16;

/// Poll-token namespace for inbound connections; outbound links use their
/// peer index directly (always `< 2^32` endpoints).
const INBOUND_BASE: u64 = 1 << 32;

/// Poll token of the listening socket.
const LISTEN_TOKEN: u64 = sys::Poller::WAKE_TOKEN - 1;

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
    /// Raw fd of each live outbound socket, for the synchronous
    /// `sever_link`. The poller clears a slot *before* dropping the stream,
    /// so a sever can never hit a reused descriptor.
    out_fds: Vec<Mutex<Option<RawFd>>>,
    /// Peers none of whose HELLOs the poller has admitted yet; `connect`
    /// returns once this reaches zero, and the initial mesh is up.
    unheard: AtomicUsize,
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
    /// Frames queued across all links (timeout diagnostics).
    pending_frames: AtomicU64,
    /// Bytes queued across all links (timeout diagnostics).
    pending_bytes: AtomicU64,
    /// `(peer, "rx"|"tx", when)` of the last readiness event served.
    last_ready: Mutex<Option<(usize, &'static str, Instant)>>,
    poller: sys::Poller,
    /// Metrics-plane handles, resolved once at connect so the frame paths
    /// record registry-free: queue high-water gauges and the writev
    /// batch-size distribution.
    m_tx_queue_peak: metrics::Gauge,
    m_rx_queue_peak: metrics::Gauge,
    m_writev_batch: metrics::Histogram,
    /// This endpoint's link-repair counts, owned registry cells:
    /// `poseidon_{reconnects,reaccepts,redials,dup_hellos,bad_hellos}_total`.
    reconnected: metrics::Counter,
    reaccepted: metrics::Counter,
    redial_attempts: metrics::Counter,
    dup_hellos: metrics::Counter,
    bad_hellos: metrics::Counter,
    /// Base instant of the `last_tx_ns` stamp (elapsed ns + 1, so 0 means
    /// "never") — send-side link staleness for timeout diagnostics.
    started: Instant,
    last_tx_ns: AtomicU64,
}

impl Shared {
    /// Counts one envelope into the inbox and returns the receive-queue
    /// depth including it. Saturating: the two counters are read apart, so a
    /// burst of loop-back traffic dequeued in between can overtake this
    /// thread's view of `delivered`.
    fn note_delivered(&self) -> u64 {
        (self.delivered.fetch_add(1, Ordering::Relaxed) + 1).saturating_sub(self.core.dequeued())
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
        let queued = self.note_delivered();
        self.m_rx_queue_peak.set_max(queued);
        if telemetry::is_enabled() {
            telemetry::instant("rx.frame", env.from as u64, env.msg.wire_bytes());
            telemetry::counter("rx.queue", env.from as u64, queued);
        }
        tx.send(env).map_err(|_| ())
    }
}

/// Every registered endpoint of this process, by bound listening address:
/// how a sender finds the peers it can hand frames to in memory.
static REGISTRY: Mutex<Vec<(SocketAddr, Weak<Shared>)>> = Mutex::new(Vec::new());

/// One endpoint's [`REGISTRY`] entry, withdrawn when dropped.
struct Registration {
    addr: SocketAddr,
    shared: Weak<Shared>,
}

impl Registration {
    /// Registers `shared` under `addr`. An entry already there belongs to an
    /// endpoint whose listener is gone, so it is replaced.
    fn new(addr: SocketAddr, shared: &Arc<Shared>) -> Registration {
        let shared = Arc::downgrade(shared);
        let mut registry = REGISTRY.lock().expect("registry lock");
        registry.retain(|(a, _)| *a != addr);
        registry.push((addr, Weak::clone(&shared)));
        Registration { addr, shared }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        REGISTRY
            .lock()
            .expect("registry lock")
            .retain(|(a, w)| *a != self.addr || !w.ptr_eq(&self.shared));
    }
}

/// The endpoints `shared`'s frames can be handed to in memory, indexed by
/// peer: itself, and every registered peer whose listening address, endpoint
/// id and node map are the spec's and that shares its physical node.
fn resolve_coresident(shared: &Arc<Shared>) -> Vec<Option<Weak<Shared>>> {
    let (me, spec) = (shared.core.me(), &shared.spec);
    let registry = REGISTRY.lock().expect("registry lock");
    (0..spec.addrs.len())
        .map(|peer| {
            if peer == me {
                return Some(Arc::downgrade(shared));
            }
            let (_, w) = registry.iter().find(|(a, _)| *a == spec.addrs[peer])?;
            let p = w.upgrade()?;
            (p.core.me() == peer
                && p.core.node() == shared.core.node()
                && p.spec.node_of_endpoint == spec.node_of_endpoint)
                .then(|| Weak::clone(w))
        })
        .collect()
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
    poller_thread: Option<JoinHandle<()>>,
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

        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError::Handshake(format!("nonblocking listener: {e}")))?;
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
            out_fds: (0..n).map(|_| Mutex::new(None)).collect(),
            unheard: AtomicUsize::new(n - 1),
            reader_err: Mutex::new(None),
            inbox: Mutex::new(Some(inbox_tx)),
            delivered: AtomicU64::new(0),
            down: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            pending_frames: AtomicU64::new(0),
            pending_bytes: AtomicU64::new(0),
            last_ready: Mutex::new(None),
            poller,
            m_tx_queue_peak: metrics::gauge("poseidon_tx_queue_peak_frames", &labels),
            m_rx_queue_peak: metrics::gauge("poseidon_rx_queue_peak_frames", &labels),
            m_writev_batch: metrics::histogram("poseidon_writev_batch_frames", &labels),
            reconnected: owned("poseidon_reconnects_total"),
            reaccepted: owned("poseidon_reaccepts_total"),
            redial_attempts: owned("poseidon_redials_total"),
            dup_hellos: owned("poseidon_dup_hellos_total"),
            bad_hellos: owned("poseidon_bad_hellos_total"),
            started: Instant::now(),
            last_tx_ns: AtomicU64::new(0),
        });

        // Registered before the first dial, so every peer that has dialed us
        // can be found once our initial mesh is up.
        let registration = listener
            .local_addr()
            .ok()
            .map(|addr| Registration::new(addr, &shared));

        // Our listener is bound, so while we dial, the kernel completes our
        // peers' inbound handshakes and buffers their HELLOs until the
        // poller accepts them.
        let mut out_streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        for peer in (0..n).filter(|&p| p != me) {
            out_streams[peer] = Some(net::dial(spec, me, peer, deadline)?);
        }

        // Publish the outbound fds *before* the poller exists: `sever_link`
        // consults these slots and may run the instant `connect` returns — it
        // must not race the poller thread's own registration pass.
        for (peer, stream) in out_streams.iter().enumerate() {
            if let Some(stream) = stream {
                *shared.out_fds[peer].lock().expect("out fd lock") = Some(stream.as_raw_fd());
            }
        }

        let poller_thread = {
            let shared = Arc::clone(&shared);
            let connector = std::thread::current();
            std::thread::spawn(move || {
                EventLoop::new(shared, listener, out_streams, connector).run()
            })
        };
        let mut ep = Self {
            shared,
            coresident: Vec::new(),
            registration,
            inbox,
            poller_thread: Some(poller_thread),
            down: false,
        };

        // The poller unparks us once every peer's first HELLO is admitted.
        while ep.shared.unheard.load(Ordering::SeqCst) > 0 {
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
                let heard = n - 1 - ep.shared.unheard.load(Ordering::SeqCst);
                let _ = ep.shutdown();
                let why = format!("endpoint {me}: heard {heard} of {} peers by timeout", n - 1);
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
        diag.link = Some(LinkHealth {
            queued_frames: shared.pending_frames.load(Ordering::Relaxed),
            queued_bytes: shared.pending_bytes.load(Ordering::Relaxed),
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
        shared.pending_frames.fetch_add(1, Ordering::Relaxed);
        shared.pending_bytes.fetch_add(frame_len, Ordering::Relaxed);
        if telemetry::is_enabled() {
            telemetry::counter("tx.queue", to as u64, depth);
        }
        shared.dirty.store(true, Ordering::SeqCst);
        if shared.sleeping.load(Ordering::SeqCst) {
            shared.poller.waker().wake();
        }
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
        if let Some(slot) = self.shared.out_fds.get(to) {
            // Holding the slot lock pins the fd: the poller clears the slot
            // under this lock before dropping a stream.
            let fd = slot.lock().expect("out fd lock");
            if let Some(fd) = *fd {
                let _ = sys::shutdown_fd(fd);
                telemetry::instant("sever", to as u64, 0);
            }
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

/// Outbound link state owned by the poller.
enum OutState {
    /// Connected; frames flush through vectored writes.
    Up(TcpStream),
    /// Broken; redialing on a backoff schedule until `deadline`.
    Down(DownState),
    /// Reconnect budget exhausted (or no link exists, e.g. our own slot).
    /// A queued frame revives the link into `Down`.
    Dead,
}

struct DownState {
    backoff: Backoff,
    /// Earliest instant of the next dial attempt.
    next: Instant,
    /// Past this instant the link is declared dead.
    deadline: Instant,
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
    fn fresh(spec: &TcpFabricSpec, now: Instant, cause: String) -> DownState {
        DownState {
            backoff: Backoff::new(spec.backoff_base, spec.backoff_cap),
            next: now,
            deadline: now + spec.reconnect_timeout,
            attempts: 0,
            cause,
            parked: false,
        }
    }
}

/// An in-flight direct read: the frame header plus the pooled lease being
/// filled straight off the socket.
struct DirectRead {
    header: FrameHeader,
    lease: crate::pool::PooledBuf,
    have: usize,
}

/// One accepted connection: its HELLO being read, then the admitted peer's
/// frames.
enum Inbound {
    Hello(HelloConn),
    Frames(InConn),
}

impl Inbound {
    fn stream(&self) -> &TcpStream {
        match self {
            Inbound::Hello(h) => &h.stream,
            Inbound::Frames(c) => &c.stream,
        }
    }
}

/// An accepted connection whose HELLO is still arriving. It holds only the
/// HELLO's bytes: the staging buffer comes with admission.
struct HelloConn {
    stream: TcpStream,
    hello: [u8; HELLO_BYTES],
    have: usize,
    /// Past this instant the HELLO is bad and the connection closes.
    deadline: Instant,
}

/// One admitted inbound connection and its reassembly state.
struct InConn {
    stream: TcpStream,
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
/// readiness, flushes queues, and runs the per-link redial state machine.
struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    gate: HelloGate,
    /// Our connection generation per peer, bumped on every redial attempt.
    gens: Vec<u32>,
    /// The thread blocked in `connect`, unparked once every peer is heard.
    connector: Thread,
    out: Vec<OutState>,
    /// Whether EPOLLOUT interest is currently registered per link.
    wants_writable: Vec<bool>,
    conns: Vec<Option<Inbound>>,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        out_streams: Vec<Option<TcpStream>>,
        connector: Thread,
    ) -> EventLoop {
        let n = out_streams.len();
        // A listener the poller cannot watch admits no peer, and `connect`
        // times out.
        let _ = shared
            .poller
            .register(listener.as_raw_fd(), LISTEN_TOKEN, true, false);
        let mut lp = EventLoop {
            gate: HelloGate::new(n, shared.dup_hellos.clone()),
            shared,
            listener,
            gens: vec![1; n],
            connector,
            out: out_streams
                .into_iter()
                .map(|s| s.map_or(OutState::Dead, OutState::Up))
                .collect(),
            wants_writable: vec![false; n],
            conns: Vec::new(),
        };
        for peer in 0..n {
            lp.register_outbound(peer);
        }
        lp
    }

    fn run(mut self) {
        telemetry::set_thread_track(format!("poller e{}", self.shared.core.me()));
        let mut events: Vec<sys::PollEvent> = Vec::new();
        let mut last_occupancy = Instant::now();
        while !self.shared.down.load(Ordering::SeqCst) {
            let now = Instant::now();
            self.sweep(now);
            // Sleep until the next redial or HELLO deadline, capped at the
            // tick. Parked links have no deadline: they dial only when
            // traffic arrives, and the sender's wake covers that.
            let mut timeout = POLL_TICK;
            for st in &self.out {
                if let OutState::Down(d) = st {
                    if !d.parked {
                        timeout = timeout.min(d.next.saturating_duration_since(now));
                    }
                }
            }
            if let Some((earliest, _)) = self.waiting().min() {
                timeout = timeout.min(earliest.saturating_duration_since(now));
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
            let batch = std::mem::take(&mut events);
            for &ev in &batch {
                self.handle_event(ev);
            }
            events = batch;
            if telemetry::is_enabled() && last_occupancy.elapsed() >= Duration::from_millis(250) {
                last_occupancy = Instant::now();
                telemetry::counter(
                    "pool.occupancy",
                    0,
                    BufPool::global().stats().resident_bytes,
                );
            }
        }
        self.drain_and_close();
    }

    /// Accepts every queued connection under a free slot token and reads
    /// its HELLO at once: it usually arrived with the handshake. Past
    /// [`MAX_PENDING_HELLOS`] connections still waiting, the oldest closes.
    fn accept_all(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let slot = self.conns.iter().position(Option::is_none);
            let slot = slot.unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let (fd, token) = (stream.as_raw_fd(), INBOUND_BASE | slot as u64);
            if stream.set_nonblocking(true).is_err()
                || self.shared.poller.register(fd, token, true, false).is_err()
            {
                continue;
            }
            self.conns[slot] = Some(Inbound::Hello(HelloConn {
                stream,
                hello: [0; HELLO_BYTES],
                have: 0,
                deadline: Instant::now() + HELLO_TIMEOUT,
            }));
            self.read_hello(slot);
            if self.waiting().count() > MAX_PENDING_HELLOS {
                let (_, oldest) = self.waiting().min().expect("over the cap");
                self.reject(oldest);
            }
        }
    }

    /// Deadline and slot of every connection still waiting for its HELLO.
    fn waiting(&self) -> impl Iterator<Item = (Instant, usize)> + '_ {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| match c {
                Some(Inbound::Hello(h)) => Some((h.deadline, slot)),
                _ => None,
            })
    }

    /// Reads what is missing of a HELLO — never a frame byte past it — and
    /// admits a whole, valid one through the gate: the connection gets its
    /// staging buffer, and counts towards the initial mesh (a peer's first)
    /// or as a re-accept (any after the mesh is up).
    fn read_hello(&mut self, slot: usize) {
        let Some(Some(Inbound::Hello(h))) = self.conns.get_mut(slot) else {
            return;
        };
        while h.have < HELLO_BYTES {
            match h.stream.read(&mut h.hello[h.have..]) {
                Ok(0) => return self.reject(slot),
                Ok(got) => h.have += got,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.reject(slot),
            }
        }
        let endpoints = self.shared.spec.addrs.len();
        let Some(hello) = net::validate_hello(&h.hello, self.shared.core.me(), endpoints) else {
            return self.reject(slot);
        };
        let first = !self.gate.heard(hello.peer);
        if !self.gate.admit(hello) {
            return self.close(slot); // a duplicate, counted by the gate
        }
        if first {
            if self.shared.unheard.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.connector.unpark(); // the initial mesh is up
            }
        } else if self.shared.unheard.load(Ordering::SeqCst) == 0 {
            self.shared.reaccepted.inc();
            telemetry::instant("reconnect.accept", hello.peer as u64, 0);
        }
        if let Some(Inbound::Hello(h)) = self.conns[slot].take() {
            self.conns[slot] = Some(Inbound::Frames(InConn {
                stream: h.stream,
                peer: hello.peer,
                from_node: self.shared.spec.node_of_endpoint[hello.peer],
                buf: vec![0u8; STAGING_BYTES],
                start: 0,
                end: 0,
                direct: None,
            }));
        }
    }

    /// Closes a connection whose HELLO was bad: malformed, cut short,
    /// overdue, or the oldest over the waiting cap.
    fn reject(&mut self, slot: usize) {
        self.shared.bad_hellos.inc();
        self.close(slot);
    }

    /// Deregisters and drops one inbound connection.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.shared.poller.deregister(conn.stream().as_raw_fd());
        }
    }

    /// Moves an `Up` outbound stream into nonblocking mode and registers it
    /// (hangup interest only; write interest is added on demand). On failure
    /// the link goes `Down` and the redial path gets its turn.
    fn register_outbound(&mut self, peer: usize) {
        let OutState::Up(stream) = &self.out[peer] else {
            return;
        };
        let fd = stream.as_raw_fd();
        let ok = stream.set_nonblocking(true).is_ok()
            && self
                .shared
                .poller
                .register(fd, peer as u64, false, false)
                .is_ok();
        if ok {
            *self.shared.out_fds[peer].lock().expect("out fd lock") = Some(fd);
        } else {
            // The slot may have been pre-published at connect time; a link
            // that failed registration must not leave a dangling fd behind.
            *self.shared.out_fds[peer].lock().expect("out fd lock") = None;
            self.out[peer] = OutState::Down(DownState::fresh(
                &self.shared.spec,
                Instant::now(),
                "could not register outbound socket".into(),
            ));
        }
    }

    fn handle_event(&mut self, ev: sys::PollEvent) {
        if ev.token == LISTEN_TOKEN {
            return self.accept_all();
        }
        if ev.token < INBOUND_BASE {
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
        let slot = (ev.token - INBOUND_BASE) as usize;
        let conn = match self.conns.get_mut(slot) {
            Some(Some(Inbound::Frames(conn))) => conn,
            Some(Some(Inbound::Hello(_))) => return self.read_hello(slot),
            _ => return,
        };
        *self.shared.last_ready.lock().expect("last ready lock") =
            Some((conn.peer, "rx", Instant::now()));
        if let Err(close) = service_inbound(conn, &self.shared) {
            if let Close::Poison(e) = close {
                let mut slot_err = self.shared.reader_err.lock().expect("reader error lock");
                if slot_err.is_none() {
                    *slot_err = Some(TransportError::Frame(e));
                }
            }
            self.close(slot);
        }
    }

    /// Per-iteration link maintenance: close overdue HELLOs, flush what is
    /// flushable, redial what is due, revive dead links with queued traffic.
    fn sweep(&mut self, now: Instant) {
        let overdue: Vec<usize> = self
            .waiting()
            .filter(|&(d, _)| now >= d)
            .map(|w| w.1)
            .collect();
        for slot in overdue {
            self.reject(slot);
        }
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
                    if queued && !self.wants_writable[peer] {
                        self.flush_link(peer);
                    }
                }
                OutState::Down(d) => {
                    if queued {
                        if d.parked {
                            // Traffic arrived for a parked link: restart the
                            // redial state machine with a fresh budget (the
                            // parked window may be arbitrarily stale) and
                            // dial immediately.
                            let cause = d.cause.clone();
                            self.out[peer] =
                                OutState::Down(DownState::fresh(&self.shared.spec, now, cause));
                            self.try_redial(peer, now);
                        } else if now >= d.next {
                            self.try_redial(peer, now);
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
                    advance_batch(&self.shared, link, &mut q, &mut batch, n);
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
            // Clear the sever slot *before* the fd can be reused.
            let mut slot = self.shared.out_fds[peer].lock().expect("out fd lock");
            *slot = None;
            self.shared.poller.deregister(stream.as_raw_fd());
            drop(stream);
            drop(slot);
        }
        self.wants_writable[peer] = false;
        if let Some(link) = &self.shared.links[peer] {
            let mut q = link.q.lock().expect("link queue");
            if let Some(f) = q.frames.front_mut() {
                f.written = 0;
            }
        }
    }

    /// One inline dial attempt for a `Down` link. Success re-registers and
    /// flushes; failure backs off, and past the deadline the link dies.
    fn try_redial(&mut self, peer: usize, now: Instant) {
        let mut d = match std::mem::replace(&mut self.out[peer], OutState::Dead) {
            OutState::Down(d) => d,
            other => {
                self.out[peer] = other;
                return;
            }
        };
        d.attempts += 1;
        self.shared.redial_attempts.inc();
        self.gens[peer] += 1;
        let generation = self.gens[peer];
        let addr = self.shared.spec.addrs[peer];
        match net::dial_once(
            addr,
            self.shared.core.me(),
            generation,
            REDIAL_ATTEMPT_TIMEOUT,
        ) {
            Ok(stream) => {
                self.shared.reconnected.inc();
                telemetry::instant("reconnect", peer as u64, d.attempts);
                self.out[peer] = OutState::Up(stream);
                self.wants_writable[peer] = false;
                self.register_outbound(peer);
                self.flush_link(peer);
            }
            Err(e) => {
                if now >= d.deadline {
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
        self.shared
            .pending_frames
            .fetch_sub(dropped, Ordering::Relaxed);
        self.shared
            .pending_bytes
            .fetch_sub(q.bytes, Ordering::Relaxed);
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
                if matches!(self.out[peer], OutState::Up(_)) {
                    if let Some(link) = &self.shared.links[peer] {
                        if !link.q.lock().expect("link queue").frames.is_empty() {
                            pending = true;
                        }
                    }
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            if self
                .shared
                .poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .is_err()
            {
                break;
            }
            let batch = std::mem::take(&mut events);
            for &ev in &batch {
                self.handle_event(ev);
            }
            events = batch;
        }
        // Senders still parked on backpressure must observe the shutdown.
        for link in self.shared.links.iter().flatten() {
            link.space.notify_all();
        }
        // FIN every outbound stream: peers read to EOF, losing nothing that
        // was flushed. Clearing the fd slots first keeps sever_link away
        // from descriptors about to be closed.
        for (peer, st) in self.out.iter().enumerate() {
            *self.shared.out_fds[peer].lock().expect("out fd lock") = None;
            if let OutState::Up(stream) = st {
                let _ = stream.shutdown(Shutdown::Write);
                self.shared.poller.deregister(stream.as_raw_fd());
            }
        }
        self.shared.poller.deregister(self.listener.as_raw_fd());
        for conn in self.conns.iter().flatten() {
            self.shared.poller.deregister(conn.stream().as_raw_fd());
        }
        // Dropping `self` closes the listener and every socket; the handle
        // closes the inbox once this thread is joined.
    }
}

/// Pops fully written frames (and advances the partial head) of a stolen
/// write batch after a vectored write of `n` bytes, keeping the queue's
/// byte/depth accounting (which still covers stolen frames) in step and
/// signalling senders when space opens up.
fn advance_batch(
    shared: &Shared,
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
            let flen = f.len() as u64;
            q.bytes -= flen;
            link.depth.fetch_sub(1, Ordering::Relaxed);
            shared.pending_frames.fetch_sub(1, Ordering::Relaxed);
            shared.pending_bytes.fetch_sub(flen, Ordering::Relaxed);
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
fn service_inbound(conn: &mut InConn, shared: &Shared) -> Result<(), Close> {
    loop {
        // Finish an in-flight direct read first: the lease IS the payload.
        if let Some(d) = conn.direct.as_mut() {
            while d.have < d.lease.len() {
                match conn.stream.read(&mut d.lease[d.have..]) {
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
        match conn.stream.read(&mut conn.buf[conn.end..cap]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::LAYER_GRANULAR_CHUNK;
    use std::net::Ipv4Addr;

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
