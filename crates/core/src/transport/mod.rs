//! The transport layer: pluggable point-to-point message delivery with
//! per-node byte accounting.
//!
//! The comm plane is split into three layers (DESIGN.md §2.4):
//!
//! 1. **Messages** ([`Message`], [`Envelope`]) — what the runtime exchanges.
//! 2. **Wire format** ([`crate::wire`]) — how a message is serialised into one
//!    self-describing frame. `Message::wire_bytes()` is derived from the
//!    encoded frame, so accounting can never drift from the bytes moved.
//! 3. **Transports** (the [`Transport`] trait) — how frames travel:
//!    [`InProcTransport`] over in-process channels for the threaded runtime,
//!    [`TcpTransport`] over length-prefixed TCP sockets for the
//!    one-process-per-endpoint runtime (`poseidon-node`).
//!
//! Byte accounting is uniform across transports: every frame is counted on
//! the *send* side against the (source, destination) physical nodes, and
//! loop-back traffic — a worker talking to the KV shard colocated on its own
//! node — is delivered but *not* counted, matching Table 1's
//! `(P1 + P2 − 2)/P2` accounting and the simulator's ledger semantics.
//! Counting on the send side only means per-process counters from a TCP
//! deployment can be summed without double-counting a frame.

mod inproc;
mod net;
mod reliable;
pub(crate) mod sys;
mod tcp;

pub use inproc::{fabric, fabric_with_nodes, InProcTransport};
pub use net::{bind_ephemeral, TcpFabricSpec};
pub use reliable::{ReliabilityConfig, ReliabilityStats, ReliableTransport};
pub use tcp::TcpTransport;

use crate::metrics::PeerCounters;
use crate::telemetry;
use crate::wire::{self, FrameError};
use bytes::Bytes;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A message between nodes. Payloads are pre-serialised byte buffers; the
/// transport never inspects them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Gradient for one KV pair, worker → server, encoded with `codec`.
    GradChunk {
        /// Training iteration.
        iter: u64,
        /// Layer index.
        layer: u32,
        /// Chunk index within the layer.
        chunk: u32,
        /// Payload encoding (rides the frame header's layer word).
        codec: wire::Codec,
        /// Encoded payload.
        data: Bytes,
    },
    /// Parameters for one KV pair, server → worker. With the identity codec
    /// the payload is the fresh parameter values; with a lossy codec it is
    /// the compressed *update delta* the worker applies to its replica.
    ParamChunk {
        /// Training iteration.
        iter: u64,
        /// Layer index.
        layer: u32,
        /// Chunk index within the layer.
        chunk: u32,
        /// Payload encoding (rides the frame header's layer word).
        codec: wire::Codec,
        /// Encoded payload.
        data: Bytes,
    },
    /// A batch of sufficient factors, worker → peer (SFB) or worker → server
    /// (Adam).
    SfPush {
        /// Training iteration.
        iter: u64,
        /// Layer index.
        layer: u32,
        /// Encoded `SfBatch`.
        data: Bytes,
    },
    /// A dense parameter matrix, server → worker (Adam's pull path).
    ParamMatrix {
        /// Training iteration.
        iter: u64,
        /// Layer index.
        layer: u32,
        /// Encoded payload.
        data: Bytes,
    },
    /// Cumulative acknowledgement (reliable layer, DESIGN.md §2.7): every
    /// data frame with sequence number ≤ `upto` on this link was delivered.
    /// Never reaches the runtime — [`ReliableTransport`] consumes it.
    Ack {
        /// Highest contiguously delivered sequence number.
        upto: u64,
    },
    /// Retransmit request (reliable layer): the receiver is still waiting
    /// for the data frame with sequence number `expect` on this link.
    /// Never reaches the runtime — [`ReliableTransport`] consumes it.
    Nack {
        /// The sequence number the receiver expects next.
        expect: u64,
    },
    /// A collective (ring/tree allreduce) segment travelling worker → worker.
    /// `route` packs the phase, originating worker and segment index
    /// ([`crate::wire::pack_collective`]); it rides in the frame's chunk
    /// field, so the wire format is unchanged.
    Collective {
        /// Training iteration.
        iter: u64,
        /// Layer index.
        layer: u32,
        /// Packed `(phase, origin, seg)` route.
        route: u32,
        /// Payload encoding (rides the frame header's layer word).
        codec: wire::Codec,
        /// Encoded payload (scaled partial sums or the folded update).
        data: Bytes,
    },
    /// One KV pair's full server state (parameters, velocity, reply-codec
    /// residual) travelling old owner → new owner during an elastic
    /// re-sharding handoff (DESIGN.md §2.11). `iter` is the boundary
    /// iteration the handoff happens at; `(layer, chunk)` is the KV key.
    Handoff {
        /// The iteration boundary this handoff belongs to.
        iter: u64,
        /// Layer index of the KV pair.
        layer: u32,
        /// Chunk index of the KV pair.
        chunk: u32,
        /// Encoded pair state ([`crate::checkpoint`]'s pair-blob codec).
        data: Bytes,
    },
}

impl Message {
    /// Bytes this message occupies on the wire — the length of its encoded
    /// frame (header plus payload), not a hand-maintained formula.
    pub fn wire_bytes(&self) -> u64 {
        (wire::FRAME_HEADER_BYTES + self.payload_len()) as u64
    }

    /// The iteration stamp carried by the message (control frames: their
    /// ack/nack operand, which travels in the same header field).
    pub fn iter(&self) -> u64 {
        match self {
            Message::GradChunk { iter, .. }
            | Message::ParamChunk { iter, .. }
            | Message::SfPush { iter, .. }
            | Message::ParamMatrix { iter, .. }
            | Message::Collective { iter, .. }
            | Message::Handoff { iter, .. } => *iter,
            Message::Ack { upto } => *upto,
            Message::Nack { expect } => *expect,
        }
    }

    /// The layer index carried by the message.
    pub fn layer(&self) -> u32 {
        match self {
            Message::GradChunk { layer, .. }
            | Message::ParamChunk { layer, .. }
            | Message::SfPush { layer, .. }
            | Message::ParamMatrix { layer, .. }
            | Message::Collective { layer, .. }
            | Message::Handoff { layer, .. } => *layer,
            Message::Ack { .. } | Message::Nack { .. } => 0,
        }
    }

    /// The payload codec carried by the message (identity for variants
    /// whose payload has a fixed encoding).
    pub fn codec(&self) -> wire::Codec {
        match self {
            Message::GradChunk { codec, .. }
            | Message::ParamChunk { codec, .. }
            | Message::Collective { codec, .. } => *codec,
            _ => wire::Codec::Identity,
        }
    }

    /// The wire-tag name of the variant, for diagnostics.
    pub fn tag_name(&self) -> &'static str {
        match self {
            Message::GradChunk { .. } => "GradChunk",
            Message::ParamChunk { .. } => "ParamChunk",
            Message::SfPush { .. } => "SfPush",
            Message::ParamMatrix { .. } => "ParamMatrix",
            Message::Ack { .. } => "Ack",
            Message::Nack { .. } => "Nack",
            Message::Collective { .. } => "Collective",
            Message::Handoff { .. } => "Handoff",
        }
    }

    /// True for the reliable layer's control frames (`Ack`/`Nack`), which
    /// carry no training data and never reach the runtime.
    pub fn is_control(&self) -> bool {
        matches!(self, Message::Ack { .. } | Message::Nack { .. })
    }

    fn payload_len(&self) -> usize {
        self.payload().len()
    }

    /// The payload bytes the frame for this message carries (empty for
    /// control frames). Pairs with
    /// [`wire::encode_header_seq`](crate::wire::encode_header_seq) so the
    /// vectored write path can ship header and payload as two `IoSlice`s
    /// without materialising the frame.
    pub fn payload(&self) -> &Bytes {
        static EMPTY: Bytes = Bytes::new();
        match self {
            Message::GradChunk { data, .. }
            | Message::ParamChunk { data, .. }
            | Message::SfPush { data, .. }
            | Message::ParamMatrix { data, .. }
            | Message::Collective { data, .. }
            | Message::Handoff { data, .. } => data,
            Message::Ack { .. } | Message::Nack { .. } => &EMPTY,
        }
    }

    /// Consumes the message, returning its payload by value (a refcount
    /// move, never a copy).
    pub(crate) fn into_payload(self) -> Bytes {
        match self {
            Message::GradChunk { data, .. }
            | Message::ParamChunk { data, .. }
            | Message::SfPush { data, .. }
            | Message::ParamMatrix { data, .. }
            | Message::Collective { data, .. }
            | Message::Handoff { data, .. } => data,
            Message::Ack { .. } | Message::Nack { .. } => Bytes::new(),
        }
    }
}

/// A delivered message plus its origin.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending *physical node*.
    pub from: usize,
    /// Sending *endpoint* (several endpoints can share a node, and the
    /// reliable layer keys its sequence streams by endpoint, not node).
    pub src: usize,
    /// Per-link sequence number stamped by the sender's reliable layer
    /// (0 = unsequenced).
    pub seq: u32,
    /// The sender's membership epoch when the frame was encoded (0 under
    /// fixed membership).
    pub epoch: u32,
    /// The message.
    pub msg: Message,
}

/// Process-wide count of data frames dropped at a transport's receive path
/// because they carried a membership epoch older than the receiver's — a
/// straggler from before a reconfiguration that must never be applied.
static STALE_EPOCH_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Data frames dropped for carrying a stale membership epoch, process-wide.
pub fn stale_epoch_frames() -> u64 {
    STALE_EPOCH_FRAMES.load(Ordering::Relaxed)
}

/// True when `env` must be dropped instead of delivered: a *data* frame
/// stamped with a membership epoch older than the receiver's `current`.
/// Control frames (ack/nack) are epoch-exempt — the reliability layer's
/// bookkeeping stays valid across reconfigurations — and frames from a
/// *future* epoch are delivered (the sender crossed the boundary first; BSP
/// ordering guarantees the receiver is about to).
fn stale_epoch(env: &Envelope, current: u32) -> bool {
    !env.msg.is_control() && env.epoch < current
}

/// Counts one dropped stale-epoch frame (global static + metrics counter).
fn note_stale_epoch_frame(endpoint: usize, frame_epoch: u32, current: u32) {
    STALE_EPOCH_FRAMES.fetch_add(1, Ordering::Relaxed);
    crate::metrics::counter("poseidon_stale_epoch_frames_total", &[]).add(1);
    telemetry::instant(
        "transport.stale_epoch",
        endpoint as u64,
        ((current as u64) << 32) | frame_epoch as u64,
    );
}

/// The most recent frame an endpoint received before a timeout — the first
/// thing to look at when a worker starves: *who* went quiet, and at which
/// (iteration, layer) the conversation stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastFrame {
    /// Physical node the frame came from.
    pub from_node: usize,
    /// Wire-tag name of the frame's message variant.
    pub tag: &'static str,
    /// Iteration stamp the frame carried.
    pub iter: u64,
    /// Layer index the frame carried.
    pub layer: u32,
    /// Elapsed between that frame's arrival and the timeout firing.
    pub since: Duration,
}

/// Diagnostic context attached to a receive timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutDiag {
    /// The endpoint that timed out.
    pub endpoint: usize,
    /// The `recv_timeout` budget that expired.
    pub waited: Duration,
    /// The last frame this endpoint ever received (`None` if the peer never
    /// said anything at all).
    pub last_frame: Option<LastFrame>,
    /// Recovery attempts this endpoint made before giving up: dial retries,
    /// socket reconnects, and runtime retry rounds all count here, so a
    /// dead-peer verdict states how hard the survivor tried.
    pub attempts: u64,
    /// Event-loop context at the moment of the timeout (`None` on transports
    /// without a poller, e.g. in-process channels).
    pub poller: Option<PollerDiag>,
    /// Metrics snapshot of the stalled link at the moment of the timeout
    /// (`None` on transports that don't track link state).
    pub link: Option<LinkHealth>,
}

/// A metrics snapshot of one endpoint's link state, attached to a
/// [`TimeoutDiag`] so a dead-peer verdict carries the numbers a live scrape
/// would have shown: how much is stuck in the write queues, how stale the
/// conversation is in each direction, and how much repair work the reliable
/// layer already did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkHealth {
    /// Frames queued for transmit but not yet written.
    pub queued_frames: u64,
    /// Bytes queued for transmit but not yet written.
    pub queued_bytes: u64,
    /// Elapsed since this endpoint last put a frame on the wire (`None` if
    /// it never sent).
    pub last_tx_age: Option<Duration>,
    /// Elapsed since this endpoint last received a frame (`None` if it never
    /// received).
    pub last_rx_age: Option<Duration>,
    /// Data frames this endpoint retransmitted in response to nacks.
    pub retransmits: u64,
}

impl std::fmt::Display for LinkHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link: {} frames / {} bytes queued",
            self.queued_frames, self.queued_bytes
        )?;
        match self.last_tx_age {
            Some(age) => write!(f, ", last tx {age:.1?} ago")?,
            None => write!(f, ", never sent")?,
        }
        match self.last_rx_age {
            Some(age) => write!(f, ", last rx {age:.1?} ago")?,
            None => write!(f, ", never received")?,
        }
        if self.retransmits > 0 {
            write!(f, ", {} retransmits", self.retransmits)?;
        }
        Ok(())
    }
}

/// What the event-loop core was doing when a receive timed out: is traffic
/// stuck in *our* write queues (a flush stall), or did readiness simply stop
/// arriving (the peer went quiet)?
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PollerDiag {
    /// Frames queued but not yet written across all links.
    pub pending_tx_frames: u64,
    /// Bytes queued but not yet written across all links.
    pub pending_tx_bytes: u64,
    /// `(peer, direction, age)` of the last readiness event the poller
    /// served — direction is `"rx"` or `"tx"`.
    pub last_ready: Option<(usize, &'static str, Duration)>,
}

impl std::fmt::Display for PollerDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "poller: {} frames / {} bytes pending",
            self.pending_tx_frames, self.pending_tx_bytes
        )?;
        match &self.last_ready {
            Some((peer, dir, age)) => {
                write!(f, ", last readiness {dir} on peer {peer} {age:.1?} ago")
            }
            None => write!(f, ", no readiness event ever served"),
        }
    }
}

impl std::fmt::Display for TimeoutDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "endpoint {} waited {:.1?}", self.endpoint, self.waited)?;
        match &self.last_frame {
            Some(last) => write!(
                f,
                "; last frame {:.1?} ago from node {} ({} iter {} layer {})",
                last.since, last.from_node, last.tag, last.iter, last.layer
            )?,
            None => write!(f, "; no frame ever received")?,
        }
        if self.attempts > 0 {
            write!(f, "; {} recovery attempts", self.attempts)?;
        }
        if let Some(p) = &self.poller {
            write!(f, "; {p}")?;
        }
        if let Some(l) = &self.link {
            write!(f, "; {l}")?;
        }
        Ok(())
    }
}

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// `recv_timeout` expired with no message; in the runtime this means a
    /// peer stopped talking (crash, partition) rather than a silent hang.
    /// Carries the last frame seen so the stall is diagnosable. Boxed so
    /// the error stays pointer-sized next to the hot `Ok` path (clippy's
    /// `result_large_err`).
    Timeout(Box<TimeoutDiag>),
    /// The fabric (or the destination endpoint) has shut down.
    Closed,
    /// The TCP mesh could not be established.
    Handshake(String),
    /// An I/O error on an established connection.
    Io(String),
    /// A peer sent bytes that do not parse as a frame.
    Frame(FrameError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout(d) => write!(f, "timed out waiting for a message: {d}"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Handshake(e) => write!(f, "handshake failed: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Frame(e) => write!(f, "wire protocol violation: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The per-endpoint core both transports hold: who this endpoint is, the
/// ledgers it charges, its membership epoch, and the last frame it saw. It
/// owns the one implementation of the epoch fence at dequeue, of the receive
/// loop behind `recv`/`try_recv`/`recv_timeout`, and of send-side accounting;
/// a transport adds only how an [`Envelope`] gets into the inbox.
#[derive(Debug)]
pub(crate) struct EndpointCore {
    me: usize,
    /// Physical node of every endpoint on the fabric.
    nodes: Arc<[usize]>,
    traffic: Arc<TrafficCounters>,
    /// Per-peer tx/rx frame+byte counters, resolved once so the frame paths
    /// record registry-free.
    peers: PeerCounters,
    /// Membership epoch: stamped on every send, fences every receive.
    epoch: AtomicU32,
    /// Envelopes taken off the inbox so far, delivered or fenced.
    dequeued: AtomicU64,
    /// The most recent delivered frame, so a later timeout can report who
    /// went quiet and when. Uncontended: only the receive path touches it.
    last: Mutex<Option<LastSeen>>,
    attempts: AtomicU64,
}

/// `(from node, frame tag, iter, layer, arrival time)` of the last envelope.
type LastSeen = (usize, &'static str, u64, u32, Instant);

impl EndpointCore {
    /// The core of endpoint `me` on a fabric whose endpoint `j` lives on
    /// physical node `nodes[j]`, charging `traffic`.
    pub(crate) fn new(me: usize, nodes: Arc<[usize]>, traffic: Arc<TrafficCounters>) -> Self {
        Self {
            me,
            peers: PeerCounters::new(me, nodes.len()),
            nodes,
            traffic,
            epoch: AtomicU32::new(0),
            dequeued: AtomicU64::new(0),
            last: Mutex::new(None),
            attempts: AtomicU64::new(0),
        }
    }

    pub(crate) fn me(&self) -> usize {
        self.me
    }

    pub(crate) fn node(&self) -> usize {
        self.nodes[self.me]
    }

    pub(crate) fn endpoints(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn traffic(&self) -> &Arc<TrafficCounters> {
        &self.traffic
    }

    pub(crate) fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    pub(crate) fn current_epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Envelopes taken off the inbox so far (a transport that counts what it
    /// put in derives its receive-queue depth from the difference).
    pub(crate) fn dequeued(&self) -> u64 {
        self.dequeued.load(Ordering::Relaxed)
    }

    /// Notes one recovery attempt (dial retry, reconnect) so a later
    /// timeout diagnostic can report how hard this endpoint tried.
    pub(crate) fn note_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one frame of `bytes` committed to endpoint `to`: per-peer
    /// counters, the `tx.frame` instant, and the traffic ledger (which skips
    /// loop-back). Call it once the frame can no longer be refused.
    pub(crate) fn note_sent(&self, to: usize, bytes: u64) {
        self.peers.note_tx(to, bytes);
        if telemetry::is_enabled() {
            telemetry::instant("tx.frame", to as u64, bytes);
        }
        self.traffic.record(self.node(), self.nodes[to], bytes);
    }

    /// The receive loop: pulls envelopes with `next` until one passes the
    /// epoch fence. A data frame from a stale membership epoch is dropped and
    /// counted, never delivered; an admitted frame is counted against its
    /// sender and remembered for timeout diagnostics.
    fn admit_from<E>(&self, mut next: impl FnMut() -> Result<Envelope, E>) -> Result<Envelope, E> {
        loop {
            let env = next()?;
            self.dequeued.fetch_add(1, Ordering::Relaxed);
            let current = self.current_epoch();
            if stale_epoch(&env, current) {
                note_stale_epoch_frame(self.me, env.epoch, current);
                continue;
            }
            self.peers.note_rx(env.src, env.msg.wire_bytes());
            self.note(&env);
            return Ok(env);
        }
    }

    /// Remembers `env` as the last frame seen.
    fn note(&self, env: &Envelope) {
        *self.last.lock().expect("last frame lock") = Some((
            env.from,
            env.msg.tag_name(),
            env.msg.iter(),
            env.msg.layer(),
            Instant::now(),
        ));
    }

    /// Blocks until an admitted envelope arrives on `inbox`.
    pub(crate) fn recv(&self, inbox: &Receiver<Envelope>) -> Result<Envelope, TransportError> {
        self.admit_from(|| inbox.recv())
            .map_err(|_| TransportError::Closed)
    }

    /// Non-blocking receive; `Ok(None)` when nothing admissible is queued.
    pub(crate) fn try_recv(
        &self,
        inbox: &Receiver<Envelope>,
    ) -> Result<Option<Envelope>, TransportError> {
        match self.admit_from(|| inbox.try_recv()) {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    /// Blocks until an admitted envelope arrives or `timeout` elapses. The
    /// budget is one deadline: a fenced frame does not restart it, so a
    /// straggler trickling stale frames cannot postpone the verdict.
    pub(crate) fn recv_timeout(
        &self,
        inbox: &Receiver<Envelope>,
        timeout: Duration,
    ) -> Result<Envelope, TransportError> {
        let deadline = Instant::now() + timeout;
        self.admit_from(|| inbox.recv_timeout(deadline.saturating_duration_since(Instant::now())))
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => self.timeout(timeout),
                RecvTimeoutError::Disconnected => TransportError::Closed,
            })
    }

    /// Builds the timeout error after `waited`, naming the last frame seen.
    fn timeout(&self, waited: Duration) -> TransportError {
        telemetry::instant(
            "transport.timeout",
            self.me as u64,
            waited.as_millis() as u64,
        );
        let last_frame =
            self.last
                .lock()
                .expect("last frame lock")
                .map(|(from_node, tag, iter, layer, at)| LastFrame {
                    from_node,
                    tag,
                    iter,
                    layer,
                    since: at.elapsed(),
                });
        TransportError::Timeout(Box::new(TimeoutDiag {
            endpoint: self.me,
            waited,
            last_frame,
            attempts: self.attempts.load(Ordering::Relaxed),
            poller: None,
            link: None,
        }))
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

/// Deterministic capped exponential backoff: `base, 2·base, 4·base, …`
/// clamped to `cap`. No jitter on purpose — chaos runs must replay the same
/// attempt schedule, and on a localhost mesh there is no thundering herd to
/// spread. Shared by `TcpTransport`'s initial dials and its post-sever
/// reconnect path.
#[derive(Debug, Clone)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
}

impl Backoff {
    /// A fresh schedule starting at `base` and never exceeding `cap`.
    pub fn new(base: Duration, cap: Duration) -> Self {
        Self {
            next: base.min(cap),
            cap,
        }
    }

    /// The delay to sleep before the upcoming attempt; doubles (up to the
    /// cap) for the attempt after.
    pub fn next_delay(&mut self) -> Duration {
        let d = self.next;
        self.next = (self.next * 2).min(self.cap);
        d
    }
}

/// Point-to-point message delivery between the fabric's endpoints.
///
/// Contract (uniform across implementations, pinned by the shared tests in
/// `crates/core/tests/loopback_accounting.rs` and
/// `tests/transport_equivalence.rs`):
///
/// - Endpoints are addressed by fabric index `0..endpoints()`; each lives on
///   a physical node (`node()`), and several endpoints may share a node.
/// - `send` is reliable and per-(sender, receiver) ordered; it records the
///   encoded frame's length against the (source, destination) nodes in the
///   shared [`TrafficCounters`], *except* when both endpoints share a node
///   (loop-back is delivered, never counted).
/// - `recv`/`recv_timeout`/`try_recv` deliver [`Envelope`]s stamped with the
///   sender's physical node.
/// - `shutdown` flushes and tears down the endpoint; after a clean shutdown
///   of all endpoints no thread is left blocked.
pub trait Transport: Send {
    /// The physical node this endpoint lives on.
    fn node(&self) -> usize;

    /// This endpoint's fabric index.
    fn endpoint_id(&self) -> usize;

    /// Number of endpoints on the fabric.
    fn endpoints(&self) -> usize;

    /// The shared traffic ledger (one slot per *physical node*).
    fn traffic(&self) -> &Arc<TrafficCounters>;

    /// Sends `msg` to endpoint `to` stamped with per-link sequence number
    /// `seq` (0 = unsequenced), recording its frame bytes against the two
    /// endpoints' physical nodes (loop-back excluded). This is the primitive
    /// the reliable layer uses; everything else calls [`Transport::send`].
    fn send_seq(&self, to: usize, msg: Message, seq: u32) -> Result<(), TransportError>;

    /// Sends `msg` to endpoint `to`, recording its frame bytes against the
    /// two endpoints' physical nodes (loop-back excluded).
    fn send(&self, to: usize, msg: Message) -> Result<(), TransportError> {
        self.send_seq(to, msg, 0)
    }

    /// Forcibly severs the underlying link to endpoint `to` as a fault
    /// injection primitive: the next send on a socket transport hits a broken
    /// pipe and must reconnect. Transports with no physical link (in-process
    /// channels) have nothing to sever and succeed as a no-op.
    fn sever_link(&self, to: usize) -> Result<(), TransportError> {
        let _ = to;
        Ok(())
    }

    /// Blocks until a message arrives.
    fn recv(&self) -> Result<Envelope, TransportError>;

    /// Non-blocking receive; `Ok(None)` when no message is queued.
    fn try_recv(&self) -> Result<Option<Envelope>, TransportError>;

    /// Blocks until a message arrives or `timeout` elapses
    /// ([`TransportError::Timeout`]).
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, TransportError>;

    /// Advances this endpoint's membership epoch (DESIGN.md §2.11). Every
    /// frame sent afterwards is stamped with the new epoch; every *data*
    /// frame received that was stamped with an older epoch is dropped and
    /// counted ([`stale_epoch_frames`]) instead of delivered.
    fn set_epoch(&self, epoch: u32);

    /// This endpoint's current membership epoch (0 under fixed membership).
    fn current_epoch(&self) -> u32;

    /// Gracefully tears down this endpoint. Idempotent.
    fn shutdown(&mut self) -> Result<(), TransportError>;
}

/// Thread-safe per-node traffic counters (bytes that crossed the "network").
#[derive(Debug)]
pub struct TrafficCounters {
    tx: Vec<AtomicU64>,
    rx: Vec<AtomicU64>,
}

impl TrafficCounters {
    /// A zeroed ledger with one tx/rx slot per physical node.
    pub fn new(nodes: usize) -> Self {
        Self {
            tx: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            rx: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of physical nodes in the ledger.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// Bytes sent by `node` (excluding loop-back).
    pub fn tx_bytes(&self, node: usize) -> u64 {
        self.tx[node].load(Ordering::Relaxed)
    }

    /// Bytes received by `node` (excluding loop-back).
    pub fn rx_bytes(&self, node: usize) -> u64 {
        self.rx[node].load(Ordering::Relaxed)
    }

    /// Total bytes on the network.
    pub fn total_bytes(&self) -> u64 {
        self.tx.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Per-node totals (tx + rx).
    pub fn per_node_totals(&self) -> Vec<u64> {
        (0..self.tx.len())
            .map(|n| self.tx_bytes(n) + self.rx_bytes(n))
            .collect()
    }

    /// A plain-value copy for aggregation across process boundaries.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            tx: self.tx.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
            rx: self.rx.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Records one frame. Counting is send-side only in the TCP runtime, so
    /// summing per-process snapshots never double-counts a frame; loop-back
    /// (src == dst) is delivered but never counted.
    pub(crate) fn record(&self, src: usize, dst: usize, bytes: u64) {
        if src == dst {
            return;
        }
        self.tx[src].fetch_add(bytes, Ordering::Relaxed);
        self.rx[dst].fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Plain-value traffic totals, mergeable across processes. Each process in a
/// TCP deployment counts only the frames *it* sent (send-side accounting), so
/// accumulating every process's snapshot reconstructs the cluster ledger
/// without double counting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Bytes sent per physical node.
    pub tx: Vec<u64>,
    /// Bytes received per physical node.
    pub rx: Vec<u64>,
}

impl TrafficSnapshot {
    /// A zeroed snapshot for `nodes` physical nodes.
    pub fn zeros(nodes: usize) -> Self {
        Self {
            tx: vec![0; nodes],
            rx: vec![0; nodes],
        }
    }

    /// Adds `other` into `self`, growing if needed.
    pub fn accumulate(&mut self, other: &TrafficSnapshot) {
        if other.tx.len() > self.tx.len() {
            self.tx.resize(other.tx.len(), 0);
            self.rx.resize(other.rx.len(), 0);
        }
        for (n, &b) in other.tx.iter().enumerate() {
            self.tx[n] += b;
        }
        for (n, &b) in other.rx.iter().enumerate() {
            self.rx[n] += b;
        }
    }

    /// Total bytes on the network.
    pub fn total_bytes(&self) -> u64 {
        self.tx.iter().sum()
    }

    /// Per-node totals (tx + rx).
    pub fn per_node_totals(&self) -> Vec<u64> {
        self.tx.iter().zip(&self.rx).map(|(t, r)| t + r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FRAME_HEADER_BYTES;

    const HDR: u64 = FRAME_HEADER_BYTES as u64;

    fn grad(iter: u64, payload: usize) -> Message {
        Message::GradChunk {
            iter,
            layer: 0,
            chunk: 0,
            codec: wire::Codec::Identity,
            data: Bytes::from(vec![0u8; payload]),
        }
    }

    #[test]
    fn wire_bytes_is_the_encoded_frame_length() {
        for payload in [0usize, 1, 17, 4096] {
            let msg = grad(3, payload);
            assert_eq!(msg.wire_bytes(), wire::encode_frame(&msg).len() as u64);
        }
        let sf = Message::SfPush {
            iter: 1,
            layer: 2,
            data: Bytes::from(vec![1u8; 31]),
        };
        assert_eq!(sf.wire_bytes(), wire::encode_frame(&sf).len() as u64);
    }

    #[test]
    fn per_node_totals_sum_tx_and_rx() {
        let (eps, counters) = fabric(2);
        eps[0].send(1, grad(0, 10)).unwrap();
        eps[1].send(0, grad(0, 20)).unwrap();
        let totals = counters.per_node_totals();
        assert_eq!(totals[0], (HDR + 10) + (HDR + 20));
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn backoff_doubles_to_the_cap_and_stays_there() {
        let mut b = Backoff::new(Duration::from_millis(5), Duration::from_millis(40));
        let delays: Vec<u64> = (0..6).map(|_| b.next_delay().as_millis() as u64).collect();
        assert_eq!(delays, vec![5, 10, 20, 40, 40, 40]);
        // A base above the cap is clamped immediately.
        let mut b = Backoff::new(Duration::from_millis(90), Duration::from_millis(40));
        assert_eq!(b.next_delay(), Duration::from_millis(40));
    }

    #[test]
    fn sever_link_is_a_noop_without_a_physical_link() {
        let (eps, _) = fabric(2);
        eps[0].sever_link(1).unwrap();
        eps[0].send(1, grad(0, 4)).unwrap();
        assert_eq!(eps[1].recv().unwrap().from, 0);
    }

    #[test]
    fn snapshots_accumulate_without_double_counting() {
        let a = {
            let c = TrafficCounters::new(2);
            c.record(0, 1, 100);
            c.snapshot()
        };
        let b = {
            let c = TrafficCounters::new(2);
            c.record(1, 0, 40);
            c.snapshot()
        };
        let mut sum = TrafficSnapshot::zeros(2);
        sum.accumulate(&a);
        sum.accumulate(&b);
        assert_eq!(sum.total_bytes(), 140);
        assert_eq!(sum.per_node_totals(), vec![140, 140]);
    }
}
