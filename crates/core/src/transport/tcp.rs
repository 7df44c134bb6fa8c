//! The event-loop TCP transport: one poller thread per endpoint multiplexes
//! every peer socket in nonblocking mode.
//!
//! This is the zero-copy core of the comm plane (DESIGN.md §2.4). It runs
//! exactly **two** threads regardless of fabric size — an acceptor and a
//! poller, never one per peer — and moves payload bytes without intermediate
//! copies:
//!
//! * **Send path**: `send_seq` encodes only the fixed 32-byte header
//!   ([`encode_header_stamped`]) and enqueues `(header, payload Bytes)` on the
//!   destination link's coalescing queue. The poller drains each queue with
//!   one `write_vectored` call spanning up to [`MAX_IOV`] `IoSlice`s —
//!   header and payload go to the socket straight from where they already
//!   live; no frame buffer is ever materialised.
//! * **Receive path**: small frames are parsed out of a per-connection
//!   staging buffer; payloads of [`DIRECT_READ_MIN`] bytes or more are read
//!   directly into a [`BufPool`] lease which is frozen into the delivered
//!   [`Bytes`] — the runtime consumes the same allocation the kernel wrote
//!   into, and dropping it recycles the buffer for the next frame.
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
//! [`EndpointCore`], when a frame is *committed* (enqueued, claimed for an
//! inline write, or pushed to the loop-back channel): the ledger reflects
//! frames committed to the wire, exactly as the in-process transport counts
//! sends, so the bitwise-equivalence suites see identical ledgers. Loop-back
//! (same physical node) frames still cross the socket but are never counted.

use super::net::{self, Hello, HelloGate, TcpFabricSpec, ACCEPT_POLL};
use super::sys;
use super::{
    Backoff, EndpointCore, Envelope, LinkHealth, Message, PollerDiag, TrafficCounters, Transport,
    TransportError,
};
use crate::metrics;
use crate::pool::BufPool;
use crate::telemetry;
use crate::wire::{assemble, encode_header_stamped, parse_header, FrameHeader, FRAME_HEADER_BYTES};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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

/// Payloads at least this large take the claiming inline-write path: the
/// sender thread writes the frame to the socket itself (zero-copy, kernel
/// wakes it directly on flow control) instead of handing off to the poller.
/// Smaller frames always enqueue so the poller can coalesce up to
/// [`MAX_IOV`]/2 of them into one vectored write — per-frame syscalls
/// dominate small-frame throughput, batching wins there.
const INLINE_WRITE_MIN: usize = DIRECT_READ_MIN;

/// Cap on one kernel-level writability wait of an inline writer. A cap, not
/// a pace: the kernel wakes the writer the moment socket space opens.
const INLINE_WRITE_WAIT: Duration = Duration::from_millis(100);

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

/// Poll-token namespace for inbound connections; outbound links use their
/// peer index directly (always `< 2^32` endpoints).
const INBOUND_BASE: u64 = 1 << 32;

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
    /// A sender thread holds the inline-write claim: it is mid-way through
    /// writing one frame directly to the socket (outside this lock). While
    /// set, the poller must not flush this link and other senders must
    /// enqueue behind the in-flight frame.
    writer_busy: bool,
}

/// A link claimed for an inline write: the dup'd socket, the link epoch the
/// write runs under, and the frame to write.
struct InlineClaim {
    dup_fd: RawFd,
    epoch: u64,
    hdr: [u8; FRAME_HEADER_BYTES],
    payload: Bytes,
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
    /// Bumped every time the live outbound socket is retired
    /// ([`EventLoop::break_link`]). An inline writer snapshots it before
    /// writing; a mismatch afterwards means its partial bytes went to a dead
    /// socket, so the frame must be rewound and rewritten whole.
    epoch: AtomicU64,
}

impl LinkShared {
    fn new() -> LinkShared {
        LinkShared {
            q: Mutex::new(LinkQueue {
                frames: VecDeque::new(),
                bytes: 0,
                dead: None,
                writer_busy: false,
            }),
            space: Condvar::new(),
            depth: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }
}

/// State shared between the transport handle, the acceptor, and the poller.
/// Owns the [`sys::Poller`] so its waker fd stays valid for as long as any
/// sender might signal it.
struct Shared {
    /// Identity, ledgers, epoch fence and last-frame tracker — everything
    /// that is not specific to sockets.
    core: EndpointCore,
    spec: TcpFabricSpec,
    /// Write queue per peer (`None` for our own slot).
    links: Vec<Option<LinkShared>>,
    /// Streams the acceptor validated and gated, awaiting poller adoption.
    adoptions: Mutex<Vec<(Hello, TcpStream)>>,
    /// Raw fd of each live outbound socket, for the synchronous
    /// `sever_link`. The poller clears a slot *before* dropping the stream,
    /// so a sever can never hit a reused descriptor.
    out_fds: Vec<Mutex<Option<RawFd>>>,
    /// Connection generation per peer, bumped on every redial attempt.
    gens: Vec<AtomicU32>,
    gate: HelloGate,
    reader_err: Mutex<Option<TransportError>>,
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
    reaccepts: AtomicU64,
    reconnects: AtomicU64,
    /// Frames queued across all links (timeout diagnostics).
    pending_frames: AtomicU64,
    /// Bytes queued across all links (timeout diagnostics).
    pending_bytes: AtomicU64,
    /// `(peer, "rx"|"tx", when)` of the last readiness event served.
    last_ready: Mutex<Option<(usize, &'static str, Instant)>>,
    poller: sys::Poller,
    /// Metrics-plane handles, resolved once at connect so the frame paths
    /// record registry-free: queue high-water gauges, the writev batch-size
    /// distribution, and the reconnect counter.
    m_tx_queue_peak: metrics::Gauge,
    m_rx_queue_peak: metrics::Gauge,
    m_writev_batch: metrics::Histogram,
    m_reconnects: metrics::Counter,
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
}

/// A TCP transport endpoint driven by a single readiness event loop.
///
/// Thread budget is O(1) in fabric size: one persistent acceptor plus one
/// poller, whatever `endpoints()` says — never a thread per inbound peer.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// Keeps the loop-back path alive; dropped on shutdown (so pure-receiver
    /// drops can close the channel once the poller also exits).
    self_tx: Option<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    acceptor: Option<JoinHandle<()>>,
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

        let (self_tx, inbox) = channel();
        let poller = sys::Poller::new()
            .map_err(|e| TransportError::Handshake(format!("create poller: {e}")))?;
        let shared = Arc::new(Shared {
            core: EndpointCore::new(me, Arc::from(spec.node_of_endpoint.as_slice()), counters),
            spec: spec.clone(),
            links: (0..n).map(|i| (i != me).then(LinkShared::new)).collect(),
            adoptions: Mutex::new(Vec::new()),
            out_fds: (0..n).map(|_| Mutex::new(None)).collect(),
            gens: (0..n).map(|_| AtomicU32::new(1)).collect(),
            gate: HelloGate::new(n),
            reader_err: Mutex::new(None),
            delivered: AtomicU64::new(0),
            down: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            reaccepts: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            pending_frames: AtomicU64::new(0),
            pending_bytes: AtomicU64::new(0),
            last_ready: Mutex::new(None),
            poller,
            m_tx_queue_peak: metrics::gauge(
                "poseidon_tx_queue_peak_frames",
                &[("endpoint", &me.to_string())],
            ),
            m_rx_queue_peak: metrics::gauge(
                "poseidon_rx_queue_peak_frames",
                &[("endpoint", &me.to_string())],
            ),
            m_writev_batch: metrics::histogram(
                "poseidon_writev_batch_frames",
                &[("endpoint", &me.to_string())],
            ),
            m_reconnects: metrics::counter(
                "poseidon_reconnects_total",
                &[("endpoint", &me.to_string())],
            ),
            started: Instant::now(),
            last_tx_ns: AtomicU64::new(0),
        });

        // The acceptor accepts the initial mesh (reported through `init_tx`)
        // and then *keeps accepting* for the life of the endpoint, gating
        // every HELLO and queueing adopted streams for the poller.
        let (init_tx, init_rx) = channel();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(listener, &shared, init_tx, deadline))
        };

        let mut out_streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut dial_err = None;
        for peer in (0..n).filter(|&p| p != me) {
            match net::dial(spec, me, peer, deadline) {
                Ok(stream) => out_streams[peer] = Some(stream),
                Err(e) => {
                    dial_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = dial_err {
            shared.down.store(true, Ordering::SeqCst);
            let _ = acceptor.join();
            return Err(e);
        }

        let accepted = init_rx
            .recv()
            .map_err(|_| TransportError::Handshake("acceptor thread panicked".into()))??;

        // Publish the outbound fds *before* the poller exists: `sever_link`
        // and the inline send fast path consult these slots, and both may run
        // the instant `connect` returns — they must not race the poller
        // thread's own registration pass.
        for (peer, stream) in out_streams.iter().enumerate() {
            if let Some(stream) = stream {
                *shared.out_fds[peer].lock().expect("out fd lock") = Some(stream.as_raw_fd());
            }
        }

        let poller_thread = {
            let shared = Arc::clone(&shared);
            let tx = self_tx.clone();
            std::thread::spawn(move || EventLoop::new(shared, out_streams, accepted, tx).run())
        };

        Ok(Self {
            shared,
            self_tx: Some(self_tx),
            inbox,
            acceptor: Some(acceptor),
            poller_thread: Some(poller_thread),
            down: false,
        })
    }

    /// Successful outbound reconnects so far.
    pub fn reconnect_count(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }

    /// Inbound streams re-accepted after the initial mesh.
    pub fn reaccept_count(&self) -> u64 {
        self.shared.reaccepts.load(Ordering::Relaxed)
    }

    /// Duplicate/stale HELLOs the (peer, generation) gate rejected.
    pub fn dup_hello_count(&self) -> u64 {
        self.shared.gate.dup_count()
    }

    /// What a failed receive should say. A reader that hit a protocol
    /// violation explains the silence better than "timeout" or "closed";
    /// otherwise a timeout gains the context only this transport has: is
    /// traffic stuck in our write queues, when did readiness last arrive,
    /// and how stale is the link in each direction (retransmits are filled
    /// in by the reliable layer, which owns that counter).
    fn enrich(&self, err: TransportError) -> TransportError {
        let shared = &self.shared;
        if let Some(e) = shared.reader_err.lock().expect("reader error lock").clone() {
            return e;
        }
        let TransportError::Timeout(mut diag) = err else {
            return err;
        };
        let frames = shared.pending_frames.load(Ordering::Relaxed);
        let bytes = shared.pending_bytes.load(Ordering::Relaxed);
        diag.poller = Some(PollerDiag {
            pending_tx_frames: frames,
            pending_tx_bytes: bytes,
            last_ready: shared
                .last_ready
                .lock()
                .expect("last ready lock")
                .map(|(peer, dir, at)| (peer, dir, at.elapsed())),
        });
        diag.link = Some(LinkHealth {
            queued_frames: frames,
            queued_bytes: bytes,
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
    /// either enqueues it for the poller (`Ok(None)`) or claims the idle link
    /// for an inline write by the calling thread, handing the frame back in
    /// the claim. `Closed` once shutdown began — nothing is enqueued, stamped
    /// or accounted then.
    fn commit(
        &self,
        to: usize,
        link: &LinkShared,
        hdr: [u8; FRAME_HEADER_BYTES],
        payload: Bytes,
    ) -> Result<Option<InlineClaim>, TransportError> {
        let shared = &self.shared;
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
        let sent_ns = shared.started.elapsed().as_nanos() as u64 + 1;
        shared.last_tx_ns.store(sent_ns, Ordering::Relaxed);
        // A send on a dead link revives it: the poller notices the
        // non-empty queue and restarts the redial state machine with a
        // fresh reconnect budget.
        q.dead = None;
        // Inline fast path for large frames: with nothing queued ahead
        // and no other inline writer active, this thread claims the link
        // and writes the frame to the socket itself — no poller handoff,
        // no wake, no copy, and on flow control the kernel wakes this
        // thread directly. The dup pins the socket *object* (not just the
        // descriptor number) so the write can proceed outside all locks
        // even if the poller retires the original fd concurrently.
        if payload.len() >= INLINE_WRITE_MIN && q.frames.is_empty() && !q.writer_busy {
            let slot = shared.out_fds[to].lock().expect("out fd lock");
            if let Some(fd) = *slot {
                if let Ok(dup_fd) = sys::dup_fd(fd) {
                    q.writer_busy = true;
                    return Ok(Some(InlineClaim {
                        dup_fd,
                        epoch: link.epoch.load(Ordering::SeqCst),
                        hdr,
                        payload,
                    }));
                }
            }
        }
        // Queued path: the poller owns the write, coalescing this frame
        // with its neighbours into one vectored syscall.
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
        Ok(None)
    }

    /// The claimed inline write of one large frame: loops `writev` on the
    /// dup'd fd, sleeping in a single-fd `poll(2)` on flow control, until the
    /// frame is fully written, the socket errors, or shutdown begins. Runs
    /// outside every lock; on exit it releases the claim and requeues any
    /// remainder at the *front* of the queue so per-link order holds.
    fn inline_write(&self, link: &LinkShared, claim: InlineClaim) {
        let InlineClaim {
            dup_fd,
            epoch,
            hdr,
            payload,
        } = claim;
        let total = FRAME_HEADER_BYTES + payload.len();
        let mut written = 0usize;
        let mut broken = false;
        // Holding the claim means nothing else writes this socket, so the
        // shared O_NONBLOCK flag can be dropped for the duration: a blocked
        // write then sleeps *inside* the syscall (one `writev` rides out any
        // number of flow-control stalls) instead of paying a poll+writev
        // pair per stall. Restored before the claim is released.
        sys::set_nonblocking_fd(dup_fd, false);
        while written < total && !self.shared.down.load(Ordering::SeqCst) {
            let hdr_at = written.min(FRAME_HEADER_BYTES);
            let pay_at = written - hdr_at;
            let iov = [
                IoSlice::new(&hdr[hdr_at..]),
                IoSlice::new(&payload[pay_at..]),
            ];
            match sys::writev_fd(dup_fd, &iov) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Only reachable if the blocking flip failed; wait for
                    // space at the kernel and retry.
                    sys::poll_out_fd(dup_fd, INLINE_WRITE_WAIT);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Breakage surfaces to the poller through its own
                    // readiness events; it owns the break/redial machine.
                    broken = true;
                    break;
                }
            }
        }
        sys::set_nonblocking_fd(dup_fd, true);
        sys::close_fd(dup_fd);
        let mut q = link.q.lock().expect("link queue");
        q.writer_busy = false;
        if written < total {
            // The epoch check decides whether the partial bytes reached the
            // *current* socket. If the link broke meanwhile, the peer
            // discards the partial frame at EOF, so rewind and rewrite
            // whole after redial — resuming mid-frame on a fresh socket
            // would corrupt the stream.
            let resume_at = if broken || link.epoch.load(Ordering::SeqCst) != epoch {
                0
            } else {
                written
            };
            let frame_len = total as u64;
            q.frames.push_front(QueuedFrame {
                hdr,
                payload,
                written: resume_at,
            });
            q.bytes += frame_len;
            link.depth.fetch_add(1, Ordering::Relaxed);
            self.shared.pending_frames.fetch_add(1, Ordering::Relaxed);
            self.shared
                .pending_bytes
                .fetch_add(frame_len, Ordering::Relaxed);
        }
        let backlog = !q.frames.is_empty();
        drop(q);
        // Frames enqueued behind the claim (or our own remainder) now need
        // the poller.
        if backlog {
            self.shared.dirty.store(true, Ordering::SeqCst);
            if self.shared.sleeping.load(Ordering::SeqCst) {
                self.shared.poller.waker().wake();
            }
        }
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
        // Our own slot holds no link: loop-back within one endpoint never
        // touches the socket and, like all same-node traffic, is never counted.
        let link = shared.links.get(to).ok_or(TransportError::Closed)?.as_ref();
        let claim = match link {
            None => {
                let tx = self.self_tx.as_ref().ok_or(TransportError::Closed)?;
                shared.note_delivered();
                tx.send(Envelope {
                    from: core.node(),
                    src: core.me(),
                    seq,
                    epoch,
                    msg,
                })
                .map_err(|_| TransportError::Closed)?;
                None
            }
            Some(link) => {
                let hdr = encode_header_stamped(&msg, core.me() as u32, seq, epoch);
                self.commit(to, link, hdr, msg.into_payload())?
            }
        };
        // The commit point: the frame is enqueued, claimed, or in the
        // loop-back channel. A send refused above is never accounted.
        core.note_sent(to, frame_len);
        if let (Some(link), Some(claim)) = (link, claim) {
            // Claimed inline write, outside every lock.
            self.inline_write(link, claim);
            if telemetry::is_enabled() {
                telemetry::counter("tx.queue", to as u64, 0);
            }
        }
        Ok(())
    }

    fn sever_link(&self, to: usize) -> Result<(), TransportError> {
        if to == self.shared.core.me() {
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
        if self.down {
            return Ok(());
        }
        self.down = true;
        self.shared.down.store(true, Ordering::SeqCst);
        // Unblock senders stuck in backpressure, then the poller itself; it
        // drains live queues (bounded by DRAIN_BUDGET), FINs, and exits.
        for link in self.shared.links.iter().flatten() {
            link.space.notify_all();
        }
        self.shared.poller.waker().wake();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.poller_thread.take() {
            let _ = handle.join();
        }
        self.self_tx = None;
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if !self.down {
            // Best-effort teardown on panic paths: signal both threads but
            // do not block joining them.
            self.down = true;
            self.shared.down.store(true, Ordering::SeqCst);
            for link in self.shared.links.iter().flatten() {
                link.space.notify_all();
            }
            self.shared.poller.waker().wake();
        }
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

/// One inbound connection and its reassembly state.
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

/// The poller: owns every socket, services readiness, flushes queues, and
/// runs the per-link redial state machine.
struct EventLoop {
    shared: Arc<Shared>,
    out: Vec<OutState>,
    /// Whether EPOLLOUT interest is currently registered per link.
    wants_writable: Vec<bool>,
    conns: Vec<Option<InConn>>,
    tx: Sender<Envelope>,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        out_streams: Vec<Option<TcpStream>>,
        initial_inbound: Vec<(usize, TcpStream)>,
        tx: Sender<Envelope>,
    ) -> EventLoop {
        let n = out_streams.len();
        let mut lp = EventLoop {
            shared,
            out: out_streams
                .into_iter()
                .map(|s| s.map_or(OutState::Dead, OutState::Up))
                .collect(),
            wants_writable: vec![false; n],
            conns: Vec::new(),
            tx,
        };
        for peer in 0..n {
            lp.register_outbound(peer);
        }
        for (peer, stream) in initial_inbound {
            lp.adopt(peer, stream);
        }
        lp
    }

    fn run(mut self) {
        telemetry::set_thread_track(format!("poller e{}", self.shared.core.me()));
        let mut events: Vec<sys::PollEvent> = Vec::new();
        let mut last_occupancy = Instant::now();
        while !self.shared.down.load(Ordering::SeqCst) {
            self.adopt_pending();
            let now = Instant::now();
            self.sweep(now);
            // Sleep until the next redial deadline, capped at the tick.
            // Parked links have no deadline: they dial only when traffic
            // arrives, and the sender's wake covers that.
            let mut timeout = POLL_TICK;
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

    /// Pulls acceptor-validated streams into the event loop.
    fn adopt_pending(&mut self) {
        let pending: Vec<(Hello, TcpStream)> = self
            .shared
            .adoptions
            .lock()
            .expect("adoptions lock")
            .drain(..)
            .collect();
        for (hello, stream) in pending {
            self.adopt(hello.peer, stream);
        }
    }

    /// Registers one inbound stream under a free slot token.
    fn adopt(&mut self, peer: usize, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let slot = match self.conns.iter().position(|c| c.is_none()) {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = INBOUND_BASE | slot as u64;
        if self
            .shared
            .poller
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            return;
        }
        let from_node = self.shared.spec.node_of_endpoint[peer];
        self.conns[slot] = Some(InConn {
            stream,
            peer,
            from_node,
            buf: vec![0u8; STAGING_BYTES],
            start: 0,
            end: 0,
            direct: None,
        });
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
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
            return;
        };
        *self.shared.last_ready.lock().expect("last ready lock") =
            Some((conn.peer, "rx", Instant::now()));
        match service_inbound(conn, &self.shared, &self.tx) {
            Ok(()) => {}
            Err(close) => {
                if let Close::Poison(e) = close {
                    let mut slot_err = self.shared.reader_err.lock().expect("reader error lock");
                    if slot_err.is_none() {
                        *slot_err = Some(TransportError::Frame(e));
                    }
                }
                let fd = conn.stream.as_raw_fd();
                self.shared.poller.deregister(fd);
                self.conns[slot] = None;
            }
        }
    }

    /// Per-iteration link maintenance: flush what is flushable, redial what
    /// is due, revive dead links with queued traffic.
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
    /// The queue lock is never held across a syscall: each round *steals* a
    /// batch of frames under the lock (taking the same `writer_busy` claim
    /// inline writers use, so senders enqueue behind the batch and never
    /// touch the socket), writes outside it, then reconciles. Senders on a
    /// hot link stay lock-free-in-practice instead of futex-sleeping behind
    /// every poller write.
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
                if q.writer_busy {
                    // An inline writer owns the socket; frames queued behind
                    // its in-flight frame wait. The writer wakes us when done.
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
                q.writer_busy = true;
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
            q.writer_busy = false;
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
        if let Some(link) = &self.shared.links[peer] {
            // Invalidate any in-flight inline write: its bytes went to the
            // socket just retired, so its frame must rewind to offset 0.
            link.epoch.fetch_add(1, Ordering::SeqCst);
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
        self.shared.core.note_attempt();
        let generation = self.shared.gens[peer].fetch_add(1, Ordering::Relaxed) + 1;
        let addr = self.shared.spec.addrs[peer];
        match net::dial_once(
            addr,
            self.shared.core.me(),
            generation,
            REDIAL_ATTEMPT_TIMEOUT,
        ) {
            Ok(stream) => {
                self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
                self.shared.m_reconnects.inc();
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
        for conn in self.conns.iter().flatten() {
            self.shared.poller.deregister(conn.stream.as_raw_fd());
        }
        // Dropping `self` closes every socket; the Sender clone drops with
        // it, closing the inbox once the handle's self_tx is gone too.
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
fn service_inbound(conn: &mut InConn, shared: &Shared, tx: &Sender<Envelope>) -> Result<(), Close> {
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
            deliver(conn.from_node, shared, tx, &d.header, d.lease.freeze())?;
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
                    deliver(conn.from_node, shared, tx, &header, lease.freeze())?;
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
            deliver(conn.from_node, shared, tx, &header, lease.freeze())?;
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
    tx: &Sender<Envelope>,
    header: &FrameHeader,
    payload: Bytes,
) -> Result<(), Close> {
    let msg = assemble(header, payload);
    let queued = shared.note_delivered();
    shared.m_rx_queue_peak.set_max(queued);
    if telemetry::is_enabled() {
        telemetry::instant(
            "rx.frame",
            from_node as u64,
            (FRAME_HEADER_BYTES + header.payload_len) as u64,
        );
        telemetry::counter("rx.queue", from_node as u64, queued);
    }
    tx.send(Envelope {
        from: from_node,
        src: header.src as usize,
        seq: header.seq,
        epoch: header.epoch,
        msg,
    })
    .map_err(|_| Close::Benign) // local endpoint shut down first
}

/// Accepts the initial mesh: `expected` distinct peers, each through the
/// generation gate, until `deadline`.
fn accept_initial(
    listener: &TcpListener,
    me: usize,
    expected: usize,
    gate: &HelloGate,
    deadline: Instant,
) -> Result<Vec<(usize, TcpStream)>, TransportError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Handshake(format!("nonblocking accept: {e}")))?;
    let mut peers: Vec<(usize, TcpStream)> = Vec::with_capacity(expected);
    while peers.len() < expected {
        if Instant::now() >= deadline {
            return Err(TransportError::Handshake(format!(
                "endpoint {me}: accepted {} of {expected} peers before timeout",
                peers.len()
            )));
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| TransportError::Handshake(format!("blocking stream: {e}")))?;
                let hello = net::validate_hello(&mut stream, me)?;
                // A duplicate HELLO (dial race) is dropped; a newer
                // generation replaces the stale stream.
                if !gate.admit(hello) {
                    continue;
                }
                if let Some(slot) = peers.iter_mut().find(|(p, _)| *p == hello.peer) {
                    slot.1 = stream;
                } else {
                    peers.push((hello.peer, stream));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                return Err(TransportError::Handshake(format!("accept: {e}")));
            }
        }
    }
    Ok(peers)
}

/// The persistent acceptor: phase 1 collects the initial mesh and reports it
/// through `init_tx`; phase 2 keeps the door open for reconnects, pushing
/// each gated stream to the poller for adoption.
fn acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    init_tx: Sender<Result<Vec<(usize, TcpStream)>, TransportError>>,
    deadline: Instant,
) {
    let me = shared.core.me();
    telemetry::set_thread_track(format!("accept e{me}"));
    let expected = shared.spec.addrs.len() - 1;
    let initial = accept_initial(&listener, me, expected, &shared.gate, deadline);
    let ok = initial.is_ok();
    let _ = init_tx.send(initial);
    if !ok {
        return;
    }
    while !shared.down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                // A malformed reconnect HELLO is dropped, not fatal: the
                // established mesh keeps running.
                let Ok(hello) = net::validate_hello(&mut stream, me) else {
                    continue;
                };
                if hello.peer >= shared.spec.node_of_endpoint.len() || !shared.gate.admit(hello) {
                    continue;
                }
                shared.reaccepts.fetch_add(1, Ordering::Relaxed);
                shared.m_reconnects.inc();
                telemetry::instant("reconnect.accept", hello.peer as u64, 0);
                shared
                    .adoptions
                    .lock()
                    .expect("adoptions lock")
                    .push((hello, stream));
                shared.dirty.store(true, Ordering::SeqCst);
                shared.poller.waker().wake();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::LAYER_GRANULAR_CHUNK;
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
                assert_eq!(ep.reaccept_count(), 1, "acceptor adopted the redial");
            }
            ep.shutdown().unwrap();
        });
    }

    #[test]
    fn recv_timeout_attaches_poller_context() {
        with_fabric(&[0, 1], |mut ep| {
            let err = ep.recv_timeout(Duration::from_millis(40)).unwrap_err();
            let TransportError::Timeout(diag) = err else {
                panic!("expected Timeout");
            };
            let p = diag
                .poller
                .expect("event-loop transport reports poller state");
            assert_eq!(p.pending_tx_frames, 0, "nothing was queued");
            assert_eq!(p.pending_tx_bytes, 0);
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
}
