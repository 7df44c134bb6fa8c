//! The wire layer: a self-describing, versioned frame codec plus the payload
//! codecs for the runtime's messages.
//!
//! Every [`Message`] that crosses a transport is
//! encoded as one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  "PN"
//! 2       1     version (currently 4)
//! 3       1     tag (1 GradChunk | 2 ParamChunk | 3 SfPush | 4 ParamMatrix
//!                    | 5 Ack | 6 Nack | 7 Collective | 8 Handoff)
//! 4       8     iter        u64 LE (control frames: the ack/nack operand)
//! 12      4     codec(8) | layer(24)   u32 LE
//! 16      4     chunk       u32 LE (LAYER_GRANULAR_CHUNK where not applicable)
//! 20      4     payload_len u32 LE
//! 24      4     seq         u32 LE (per-link sequence number, 0 = unsequenced)
//! 28      4     src         u32 LE (sender *endpoint* id)
//! 32      4     epoch       u32 LE (sender's membership epoch)
//! 36      n     payload (opaque bytes, see the payload codecs below)
//! ```
//!
//! Version 2 added the trailing `seq`/`src` pair for the self-healing comm
//! plane (DESIGN.md §2.7): `src` names the sending endpoint (several
//! endpoints can share a physical node, so the node alone cannot identify a
//! reliability stream) and `seq` is that link's data-frame sequence number,
//! stamped by [`ReliableTransport`](crate::transport::ReliableTransport) and
//! zero everywhere else. The `Ack`/`Nack` control tags carry their cumulative
//! operand in the `iter` field and never reach the runtime — the reliable
//! layer consumes them.
//!
//! Version 3 packs a one-byte [`Codec`] id into the top 8 bits of the layer
//! word (layer indices are bounded by [`MAX_LAYER_INDEX`]), so every
//! gradient-bearing frame — PS push, parameter broadcast, ring
//! collective — is self-describing about its payload encoding and
//! mixed-codec meshes interoperate.
//!
//! Version 4 appends a 4-byte membership `epoch` word (DESIGN.md §2.11) and
//! adds the `Handoff` tag carrying a KV pair's full server state during
//! elastic re-sharding. Every sender stamps its current epoch; receivers
//! drop-and-count data frames from a *stale* epoch (`epoch < current`) at
//! the transport layer, so a frame from before a reconfiguration can be
//! observed but never applied. Epoch 0 — the only epoch of a
//! fixed-membership run — makes the stamp inert.
//!
//! The frame is the single source of truth for byte accounting:
//! `Message::wire_bytes()` is *derived from the encoded frame*, so the
//! traffic counters can never drift from what actually crosses a socket.
//! The in-process transport counts `encode_frame(..).len()`; the TCP
//! transport counts the very buffer it writes.
//!
//! Payload codecs live behind the [`Codec`] registry
//! ([`poseidon_tensor::compress`]); this module adds the pooled sender
//! ([`encode_codec`]) and the counted receive primitives
//! ([`decode_codec_into`], [`accumulate_codec`], [`codec_cursor`],
//! [`decode_codec`]): `poseidon_codec_bytes_{pre,post}_total` count every
//! payload the protocol decodes, once, and nothing it encodes.
//! Sufficient-factor batches use [`poseidon_tensor::bytesio`].

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::transport::Message;
use bytes::{Buf, BufMut, Bytes, BytesMut};
pub use poseidon_tensor::compress::{Codec, CodecError};
use poseidon_tensor::compress::{Compressor, FrameCursor};
use std::sync::Arc;

/// First two bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"PN";

/// Current wire-format version. Decoders reject every other version.
pub const FRAME_VERSION: u8 = 4;

/// Largest layer index the v3 header can carry: the top 8 bits of the layer
/// word belong to the codec id.
pub const MAX_LAYER_INDEX: u32 = (1 << 24) - 1;

/// Packs the codec id and layer index into the header's layer word.
///
/// # Panics
///
/// Panics when `layer` exceeds [`MAX_LAYER_INDEX`].
pub fn pack_layer(codec: Codec, layer: u32) -> u32 {
    assert!(
        layer <= MAX_LAYER_INDEX,
        "layer index out of range: {layer}"
    );
    ((codec.wire_id() as u32) << 24) | layer
}

/// Inverse of [`pack_layer`]: `(codec_id, layer)`. The codec id is returned
/// raw so the caller can surface unknown ids as a decode error.
pub fn unpack_layer(word: u32) -> (u8, u32) {
    ((word >> 24) as u8, word & MAX_LAYER_INDEX)
}

/// Fixed size of the frame header preceding every payload.
pub const FRAME_HEADER_BYTES: usize = 36;

/// Upper bound on a frame payload; guards against corrupt length fields
/// causing huge allocations (VGG19-22K's largest layer is ~1.5 GB of f32s,
/// but it is chunked into 2 MB KV pairs long before framing).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Chunk id marking a layer-granular message (Adam / 1-bit paths), which
/// bypasses KV-pair chunking. Also written into the chunk field of frames
/// whose message variant carries no chunk id.
pub const LAYER_GRANULAR_CHUNK: u32 = u32::MAX;

const TAG_GRAD_CHUNK: u8 = 1;
const TAG_PARAM_CHUNK: u8 = 2;
const TAG_SF_PUSH: u8 = 3;
const TAG_PARAM_MATRIX: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_NACK: u8 = 6;
const TAG_COLLECTIVE: u8 = 7;
const TAG_HANDOFF: u8 = 8;

/// Collective route phase: accumulating along the ring towards the worker
/// that folds.
pub const COLLECTIVE_REDUCE: u8 = 0;
/// Collective route phase: the folded update travelling back round the
/// ring.
pub const COLLECTIVE_DISTRIBUTE: u8 = 1;

/// Packs a collective frame's route — phase, originating worker, segment
/// index — into the 32-bit chunk field: `phase(2) | origin(14) | seg(16)`.
/// With phase < 2 the result can never collide with
/// [`LAYER_GRANULAR_CHUNK`]. Every collective originates at the ring's head,
/// so senders write origin 0 and receivers refuse any other.
///
/// # Panics
///
/// Panics when a component exceeds its field width.
pub fn pack_collective(phase: u8, origin: usize, seg: usize) -> u32 {
    assert!(phase < 2, "collective phase out of range: {phase}");
    assert!(
        origin < (1 << 14),
        "collective origin out of range: {origin}"
    );
    assert!(seg < (1 << 16), "collective segment out of range: {seg}");
    ((phase as u32) << 30) | ((origin as u32) << 16) | seg as u32
}

/// Inverse of [`pack_collective`]: `(phase, origin, seg)`.
pub fn unpack_collective(route: u32) -> (u8, usize, usize) {
    (
        (route >> 30) as u8,
        ((route >> 16) & 0x3FFF) as usize,
        (route & 0xFFFF) as usize,
    )
}

/// Why a buffer failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does; `needed` is the total frame
    /// size in bytes (or the header size if even that is incomplete). A
    /// streaming decoder should read more; a whole-message decoder should
    /// reject the input as truncated.
    Incomplete {
        /// Total bytes the frame needs from the start of the buffer.
        needed: usize,
    },
    /// The first two bytes are not [`FRAME_MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte is not [`FRAME_VERSION`].
    BadVersion(u8),
    /// The tag byte names no known message variant.
    BadTag(u8),
    /// The codec bits of the layer word name no known [`Codec`].
    BadCodec(u8),
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete { needed } => {
                write!(f, "frame truncated (needs {needed} bytes)")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported frame version {v} (expected {FRAME_VERSION})"
                )
            }
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::BadCodec(c) => write!(f, "unknown codec id {c}"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A parsed frame header; pair it with `payload_len` payload bytes and
/// [`assemble`] to recover the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message variant tag (validated).
    tag: u8,
    /// Training iteration stamp.
    pub iter: u64,
    /// Payload codec (validated; identity for tags that carry none).
    pub codec: Codec,
    /// Layer index.
    pub layer: u32,
    /// Chunk index ([`LAYER_GRANULAR_CHUNK`] where the variant has none).
    pub chunk: u32,
    /// Payload bytes following the header.
    pub payload_len: usize,
    /// Per-link data-frame sequence number (0 = unsequenced).
    pub seq: u32,
    /// Sending endpoint id.
    pub src: u32,
    /// The sender's membership epoch at encode time (0 under fixed
    /// membership). Receivers drop-and-count data frames whose epoch is
    /// older than their own.
    pub epoch: u32,
}

/// Encodes a message as one unsequenced self-describing frame (`seq`/`src`
/// zero) — the form every transport uses when no reliability layer is
/// stacked on top.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn encode_frame(msg: &Message) -> Bytes {
    encode_frame_stamped(msg, 0, 0, 0)
}

/// Encodes a message as one self-describing frame stamped with `src`, `seq`
/// and the sender's membership `epoch`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn encode_frame_stamped(msg: &Message, src: u32, seq: u32, epoch: u32) -> Bytes {
    let header = encode_header_stamped(msg, src, seq, epoch);
    let data = msg.payload();
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES + data.len());
    buf.put_slice(&header);
    buf.put_slice(data);
    buf.freeze()
}

/// Encodes only the fixed header of the frame for `msg`; the payload is the
/// message's own [`Bytes`] (see
/// [`Message::payload`](crate::transport::Message::payload)). The vectored
/// write path uses this split so header and payload go to the socket as two
/// `IoSlice`s and the payload bytes are never copied into a frame buffer.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn encode_header_stamped(
    msg: &Message,
    src: u32,
    seq: u32,
    epoch: u32,
) -> [u8; FRAME_HEADER_BYTES] {
    let (tag, iter, layer_word, chunk) = match msg {
        Message::GradChunk {
            iter,
            layer,
            chunk,
            codec,
            ..
        } => (TAG_GRAD_CHUNK, *iter, pack_layer(*codec, *layer), *chunk),
        Message::ParamChunk {
            iter,
            layer,
            chunk,
            codec,
            ..
        } => (TAG_PARAM_CHUNK, *iter, pack_layer(*codec, *layer), *chunk),
        Message::SfPush { iter, layer, .. } => (
            TAG_SF_PUSH,
            *iter,
            pack_layer(Codec::Identity, *layer),
            LAYER_GRANULAR_CHUNK,
        ),
        Message::ParamMatrix { iter, layer, .. } => (
            TAG_PARAM_MATRIX,
            *iter,
            pack_layer(Codec::Identity, *layer),
            LAYER_GRANULAR_CHUNK,
        ),
        Message::Ack { upto } => (TAG_ACK, *upto, 0, LAYER_GRANULAR_CHUNK),
        Message::Nack { expect } => (TAG_NACK, *expect, 0, LAYER_GRANULAR_CHUNK),
        Message::Collective {
            iter,
            layer,
            route,
            codec,
            ..
        } => (TAG_COLLECTIVE, *iter, pack_layer(*codec, *layer), *route),
        Message::Handoff {
            iter, layer, chunk, ..
        } => (
            TAG_HANDOFF,
            *iter,
            pack_layer(Codec::Identity, *layer),
            *chunk,
        ),
    };
    let payload_len = msg.payload().len();
    assert!(
        payload_len <= MAX_FRAME_PAYLOAD,
        "payload of {payload_len} bytes exceeds the frame cap"
    );
    let mut hdr = [0u8; FRAME_HEADER_BYTES];
    hdr[0..2].copy_from_slice(&FRAME_MAGIC);
    hdr[2] = FRAME_VERSION;
    hdr[3] = tag;
    hdr[4..12].copy_from_slice(&iter.to_le_bytes());
    hdr[12..16].copy_from_slice(&layer_word.to_le_bytes());
    hdr[16..20].copy_from_slice(&chunk.to_le_bytes());
    hdr[20..24].copy_from_slice(&(payload_len as u32).to_le_bytes());
    hdr[24..28].copy_from_slice(&seq.to_le_bytes());
    hdr[28..32].copy_from_slice(&src.to_le_bytes());
    hdr[32..36].copy_from_slice(&epoch.to_le_bytes());
    hdr
}

/// Validates and parses a frame header.
pub fn parse_header(hdr: &[u8; FRAME_HEADER_BYTES]) -> Result<FrameHeader, FrameError> {
    if hdr[0..2] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([hdr[0], hdr[1]]));
    }
    if hdr[2] != FRAME_VERSION {
        return Err(FrameError::BadVersion(hdr[2]));
    }
    let tag = hdr[3];
    if !(TAG_GRAD_CHUNK..=TAG_HANDOFF).contains(&tag) {
        return Err(FrameError::BadTag(tag));
    }
    let mut rest = &hdr[4..];
    let iter = rest.get_u64_le();
    let layer_word = rest.get_u32_le();
    let chunk = rest.get_u32_le();
    let payload_len = rest.get_u32_le() as usize;
    let seq = rest.get_u32_le();
    let src = rest.get_u32_le();
    let epoch = rest.get_u32_le();
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(payload_len));
    }
    let (codec_id, layer) = unpack_layer(layer_word);
    let codec = Codec::from_wire_id(codec_id).ok_or(FrameError::BadCodec(codec_id))?;
    Ok(FrameHeader {
        tag,
        iter,
        codec,
        layer,
        chunk,
        payload_len,
        seq,
        src,
        epoch,
    })
}

/// Rebuilds the message from a validated header and its payload.
///
/// # Panics
///
/// Panics if `payload` does not match the header's declared length.
pub fn assemble(header: &FrameHeader, payload: Bytes) -> Message {
    assert_eq!(
        payload.len(),
        header.payload_len,
        "payload length does not match the frame header"
    );
    match header.tag {
        TAG_GRAD_CHUNK => Message::GradChunk {
            iter: header.iter,
            layer: header.layer,
            chunk: header.chunk,
            codec: header.codec,
            data: payload,
        },
        TAG_PARAM_CHUNK => Message::ParamChunk {
            iter: header.iter,
            layer: header.layer,
            chunk: header.chunk,
            codec: header.codec,
            data: payload,
        },
        TAG_SF_PUSH => Message::SfPush {
            iter: header.iter,
            layer: header.layer,
            data: payload,
        },
        TAG_PARAM_MATRIX => Message::ParamMatrix {
            iter: header.iter,
            layer: header.layer,
            data: payload,
        },
        TAG_ACK => Message::Ack { upto: header.iter },
        TAG_NACK => Message::Nack {
            expect: header.iter,
        },
        TAG_COLLECTIVE => Message::Collective {
            iter: header.iter,
            layer: header.layer,
            route: header.chunk,
            codec: header.codec,
            data: payload,
        },
        TAG_HANDOFF => Message::Handoff {
            iter: header.iter,
            layer: header.layer,
            chunk: header.chunk,
            data: payload,
        },
        other => unreachable!("parse_header admitted tag {other}"),
    }
}

/// Decodes one frame from the front of `buf`.
///
/// Returns the message and the number of bytes consumed, or
/// [`FrameError::Incomplete`] when `buf` holds less than one whole frame.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Incomplete {
            needed: FRAME_HEADER_BYTES,
        });
    }
    let mut hdr = [0u8; FRAME_HEADER_BYTES];
    hdr.copy_from_slice(&buf[..FRAME_HEADER_BYTES]);
    let header = parse_header(&hdr)?;
    let total = FRAME_HEADER_BYTES + header.payload_len;
    if buf.len() < total {
        return Err(FrameError::Incomplete { needed: total });
    }
    let payload = Bytes::copy_from_slice(&buf[FRAME_HEADER_BYTES..total]);
    Ok((assemble(&header, payload), total))
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Encodes a flat f32 slice. Thin unpooled-naming wrapper over
/// [`encode_f32s_pooled`] — there is exactly one encode implementation, so
/// the two spellings can never drift byte-wise.
pub fn encode_f32s(vals: &[f32]) -> Bytes {
    encode_f32s_pooled(vals)
}

/// Encodes a flat f32 slice into a recycled
/// [`BufPool`](crate::pool::BufPool) lease: the identity codec through
/// [`encode_codec`], so the registry and this spelling share one loop.
pub fn encode_f32s_pooled(vals: &[f32]) -> Bytes {
    encode_codec(&mut poseidon_tensor::compress::IdentityCompressor, vals)
}

/// The identity payload of a whole shared `f32` buffer. On a little-endian
/// host an `f32`'s bytes in memory are its wire bytes, so this is a view of
/// `buf` itself: no copy, and `buf` stays shared — [`Arc::make_mut`] copies
/// and [`Arc::try_unwrap`] fails — until the last view of it drops. A
/// big-endian host encodes it into a pooled lease instead.
pub(crate) fn identity_view(buf: &Arc<Vec<f32>>) -> Bytes {
    if cfg!(target_endian = "little") {
        Bytes::from_owner(SharedF32s(Arc::clone(buf)))
    } else {
        encode_f32s_pooled(buf)
    }
}

/// A shared `f32` buffer seen as its bytes: what [`identity_view`]s view.
struct SharedF32s(Arc<Vec<f32>>);

impl AsRef<[u8]> for SharedF32s {
    fn as_ref(&self) -> &[u8] {
        let vals = self.0.as_slice();
        // SAFETY: `vals` is an initialised `[f32]` borrowed for as long as
        // `&self`, so nothing writes it while the view lives; every byte of
        // an initialised `f32` is a valid `u8`, `u8` needs no alignment, and
        // `size_of_val(vals)` bytes from its start are exactly its storage.
        unsafe {
            std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
        }
    }
}

/// Sender-side entry point of the codec registry: compresses `vals`
/// through `comp` straight into a pooled lease. The buffer comes from (and
/// returns to) the global pool instead of the allocator, and no codec
/// stages its payload anywhere else first. Every sender — gradient pushes,
/// shard replies, collective hops — encodes through here, uncounted: the
/// codec byte counters count decodes.
pub fn encode_codec(comp: &mut dyn Compressor, vals: &[f32]) -> Bytes {
    let len = comp.codec().payload_bytes(vals.len());
    // Dirty lease: `compress_into` overwrites every byte.
    let mut lease = crate::pool::BufPool::global().get_dirty(len);
    comp.compress_into(vals, &mut lease);
    lease.freeze()
}

/// Per-codec dense/wire byte counters, resolved once per process and keyed
/// by [`Codec::wire_id`] so the per-frame paths stay registry-free.
fn count_codec_bytes(codec: Codec, elems: usize, wire_len: usize) {
    static TABLE: std::sync::OnceLock<Vec<(crate::metrics::Counter, crate::metrics::Counter)>> =
        std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        ["identity", "onebit"]
            .iter()
            .map(|name| {
                (
                    crate::metrics::counter("poseidon_codec_bytes_pre_total", &[("codec", name)]),
                    crate::metrics::counter("poseidon_codec_bytes_post_total", &[("codec", name)]),
                )
            })
            .collect()
    });
    let (pre, post) = &table[codec.wire_id() as usize];
    pre.add((elems * 4) as u64);
    post.add(wire_len as u64);
}

/// Counts an identity payload of `elems` values that its receiver reads in
/// place, with no decode call (a ring hop's fused fold, a DISTRIBUTE
/// landing), as [`decode_codec_into`] would count it.
pub(crate) fn count_identity_read(elems: usize) {
    count_codec_bytes(Codec::Identity, elems, elems * 4);
}

/// Counted receive primitive for a payload that *replaces* its destination:
/// decodes a payload stamped with `codec` straight into `out`, surfacing
/// truncation/corruption as a [`CodecError`] (and leaving `out` untouched)
/// instead of panicking.
pub fn decode_codec_into(codec: Codec, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    poseidon_tensor::compress::decode_into(codec, buf, out)?;
    count_codec_bytes(codec, out.len(), buf.len());
    Ok(())
}

/// Counted receive primitive for a payload that is *folded into* its
/// destination: `acc[i] += scale · decoded[i]` straight from the wire bytes
/// ([`poseidon_tensor::compress::accumulate`]).
pub fn accumulate_codec(
    codec: Codec,
    buf: &[u8],
    scale: f32,
    acc: &mut [f32],
) -> Result<(), CodecError> {
    poseidon_tensor::compress::accumulate(codec, buf, scale, acc)?;
    count_codec_bytes(codec, acc.len(), buf.len());
    Ok(())
}

/// Counted receive primitive for a payload folded into its destination a
/// window at a time: [`accumulate_codec`] split across
/// [`FrameCursor::accumulate_next`] calls, counted once, here.
pub fn codec_cursor(codec: Codec, buf: &[u8], elems: usize) -> Result<FrameCursor<'_>, CodecError> {
    let cursor = FrameCursor::new(codec, buf, elems)?;
    count_codec_bytes(codec, elems, buf.len());
    Ok(cursor)
}

/// Allocate-then-[`decode_codec_into`], for callers off the hot path.
pub fn decode_codec(codec: Codec, buf: &[u8], expect_elems: usize) -> Result<Vec<f32>, CodecError> {
    let vals = poseidon_tensor::compress::decompress(codec, buf, expect_elems)?;
    count_codec_bytes(codec, vals.len(), buf.len());
    Ok(vals)
}

/// Fused decode-add-encode, leasing the output from the **global** pool:
/// interprets `payload` as little-endian f32s, adds `own` elementwise, and
/// writes the sums straight into a
/// [`get_dirty`](crate::pool::BufPool::get_dirty) lease — no intermediate
/// `Vec<f32>` and no per-hop copy; every byte of the lease is overwritten.
///
/// The runtime's ring does not use this: a ring hop folds its
/// contribution into the frame in one pass (`fold_run`). The only caller
/// outside this module's tests is the benchmark's `syncer.ring_hop_add_GBps`
/// probe (`benchmark/src/probes.rs`), so it stays until that probe moves
/// (ROADMAP.md item 11).
///
/// Returns `None` when the lengths disagree or `payload` is misaligned.
pub fn add_f32s_pooled(payload: &[u8], own: &[f32]) -> Option<Bytes> {
    add_f32s_pooled_with(crate::pool::BufPool::global(), payload, own)
}

/// [`add_f32s_pooled`] against an explicit pool (tests use a private pool to
/// assert steady-state hit rates without cross-test interference).
pub fn add_f32s_pooled_with(
    pool: &std::sync::Arc<crate::pool::BufPool>,
    payload: &[u8],
    own: &[f32],
) -> Option<Bytes> {
    if payload.len() != own.len() * 4 {
        return None;
    }
    let mut lease = pool.get_dirty(payload.len());
    for ((dst, src), v) in lease
        .chunks_exact_mut(4)
        .zip(payload.chunks_exact(4))
        .zip(own)
    {
        let x = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
        dst.copy_from_slice(&(x + v).to_le_bytes());
    }
    Some(lease.freeze())
}

/// The little-endian `f32`s of identity wire bytes, in order.
pub(crate) fn le_f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .as_chunks::<4>()
        .0
        .iter()
        .map(|b| f32::from_le_bytes(*b))
}

/// How a contribution `c = scale·g` starts a fold.
#[derive(Clone, Copy)]
pub(crate) enum Seed<'a> {
    /// First into a fold over a zero velocity: `0.0 + c`, the f32 op the
    /// shard runs on its zero-filled velocity. Never `c` itself —
    /// `0.0 + (-0.0)` is `+0.0`, assignment isn't.
    Zero,
    /// First into a fold over `µ·v`, `v` given as its identity wire bytes:
    /// `µ·v + c`, every product and the sum rounded on its own like the
    /// shard's `v ← µ·v; v += c`.
    Momentum(f32, &'a [u8]),
}

impl<'a> Seed<'a> {
    /// The head of a fold over the velocity `v` (identity wire bytes), or
    /// over zeros where there is none.
    pub(crate) fn over(mu: f32, v: Option<&'a [u8]>) -> Seed<'a> {
        v.map_or(Seed::Zero, |v| Seed::Momentum(mu, v))
    }

    /// The seed for the elements at `bytes` of the fold's wire layout.
    pub(crate) fn at(self, bytes: std::ops::Range<usize>) -> Seed<'a> {
        match self {
            Seed::Momentum(mu, v) => Seed::Momentum(mu, &v[bytes]),
            seed => seed,
        }
    }
}

/// One ring hop over a run of a segment, in one pass over every buffer it
/// touches: writes `sum = head + scale·g` into `dst` as wire bytes and, with
/// `params`, steps them by it (`θ += sum`) in the same pass — the hop that
/// ends the chain. `head` is the partial sum in `payload`, or, with `seed`,
/// the seeded contribution of the raw gradient `payload` carries from the
/// chain's head (`seed` applied to `scale·payload`). Every element sees the
/// shard's roundings in the shard's order.
///
/// # Panics
///
/// Panics if the lengths disagree.
pub(crate) fn fold_run(
    dst: &mut [u8],
    payload: &[u8],
    seed: Option<Seed<'_>>,
    scale: f32,
    g: &[f32],
    params: Option<&mut [f32]>,
) {
    assert!(
        dst.len() == g.len() * 4 && payload.len() == dst.len(),
        "ring hop run length"
    );
    let p = le_f32s(payload);
    match seed {
        None => sum_run(dst, p, scale, g, params),
        Some(Seed::Zero) => sum_run(dst, p.map(|p| 0.0 + scale * p), scale, g, params),
        Some(Seed::Momentum(mu, v)) => {
            assert_eq!(v.len(), payload.len(), "velocity run length");
            let heads = le_f32s(v).zip(p).map(|(v, p)| mu * v + scale * p);
            sum_run(dst, heads, scale, g, params)
        }
    }
}

/// [`fold_run`]'s pass once its heads are known.
fn sum_run(
    dst: &mut [u8],
    heads: impl Iterator<Item = f32>,
    scale: f32,
    g: &[f32],
    params: Option<&mut [f32]>,
) {
    let sums = heads.zip(g).map(|(h, g)| h + scale * g);
    let dst = dst.as_chunks_mut::<4>().0.iter_mut();
    match params {
        None => {
            for (d, s) in dst.zip(sums) {
                *d = s.to_le_bytes();
            }
        }
        Some(params) => {
            assert_eq!(params.len(), g.len(), "parameter run length");
            for ((d, s), w) in dst.zip(sums).zip(params) {
                *d = s.to_le_bytes();
                *w += s;
            }
        }
    }
}

/// Steps `params` by a delta given as identity wire bytes, straight from
/// them: `θ += v`.
///
/// # Panics
///
/// Panics if the lengths disagree.
pub(crate) fn add_into(params: &mut [f32], delta: &[u8]) {
    assert_eq!(delta.len(), params.len() * 4, "delta run length");
    for (w, v) in params.iter_mut().zip(le_f32s(delta)) {
        *w += v;
    }
}

/// Decodes a buffer produced by [`encode_f32s`] — the identity codec's
/// decode loop, so there is one f32 decode implementation.
///
/// Returns `None` if the length is not a multiple of 4.
pub fn decode_f32s(buf: &[u8]) -> Option<Vec<f32>> {
    poseidon_tensor::compress::decompress(Codec::Identity, buf, buf.len() / 4).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::GradChunk {
                iter: 7,
                layer: 3,
                chunk: 2,
                codec: Codec::Identity,
                data: encode_f32s(&[1.0, -2.5, 3.25]),
            },
            Message::ParamChunk {
                iter: u64::MAX,
                layer: MAX_LAYER_INDEX,
                chunk: LAYER_GRANULAR_CHUNK,
                codec: Codec::OneBit,
                data: Bytes::new(),
            },
            Message::SfPush {
                iter: 0,
                layer: 0,
                data: Bytes::from(vec![9u8; 17]),
            },
            Message::ParamMatrix {
                iter: 42,
                layer: 1,
                data: encode_f32s(&[f32::MIN, f32::MAX, 0.0]),
            },
            Message::Ack { upto: 12345 },
            Message::Nack { expect: u64::MAX },
            Message::Collective {
                iter: 11,
                layer: 2,
                route: pack_collective(COLLECTIVE_DISTRIBUTE, 3, 5),
                codec: Codec::OneBit,
                data: encode_f32s(&[4.0, -8.0]),
            },
            Message::Handoff {
                iter: 9,
                layer: 4,
                chunk: 1,
                data: Bytes::from(vec![0xAB; 24]),
            },
        ]
    }

    fn payload_len_of(msg: &Message) -> usize {
        match msg {
            Message::GradChunk { data, .. }
            | Message::ParamChunk { data, .. }
            | Message::SfPush { data, .. }
            | Message::ParamMatrix { data, .. }
            | Message::Collective { data, .. }
            | Message::Handoff { data, .. } => data.len(),
            Message::Ack { .. } | Message::Nack { .. } => 0,
        }
    }

    #[test]
    fn frames_roundtrip_every_variant() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload_len_of(&msg));
            let (decoded, consumed) = decode_frame(&frame).expect("clean frame");
            assert_eq!(consumed, frame.len());
            assert_eq!(encode_frame(&decoded), frame, "re-encode must be stable");
        }
    }

    #[test]
    fn decode_consumes_exactly_one_frame() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut off = 0;
        for m in &msgs {
            let (decoded, used) = decode_frame(&stream[off..]).expect("frame");
            assert_eq!(encode_frame(&decoded), encode_frame(m));
            off += used;
        }
        assert_eq!(off, stream.len());
    }

    #[test]
    fn truncated_frames_are_incomplete_not_garbage() {
        let frame = encode_frame(&sample_messages()[0]);
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(FrameError::Incomplete { needed }) => assert!(needed > cut),
                other => panic!("prefix of {cut} bytes decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let frame = encode_frame(&sample_messages()[0]).to_vec();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad),
            Err(FrameError::BadMagic([b'X', _]))
        ));
        let mut bad = frame.clone();
        bad[2] = FRAME_VERSION + 1;
        assert!(matches!(
            decode_frame(&bad),
            Err(FrameError::BadVersion(v)) if v == FRAME_VERSION + 1
        ));
        let mut bad = frame.clone();
        bad[3] = 200;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadTag(200))));
        let mut bad = frame;
        bad[20..24].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&bad), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn seq_and_src_roundtrip_through_the_header() {
        let msg = sample_messages().remove(0);
        let frame = encode_frame_stamped(&msg, 7, 0xDEAD_BEEF, 0);
        let mut hdr = [0u8; FRAME_HEADER_BYTES];
        hdr.copy_from_slice(&frame[..FRAME_HEADER_BYTES]);
        let parsed = parse_header(&hdr).expect("clean header");
        assert_eq!(parsed.seq, 0xDEAD_BEEF);
        assert_eq!(parsed.src, 7);
        // The seq/src stamp never changes the reassembled message.
        let (decoded, _) = decode_frame(&frame).expect("clean frame");
        assert_eq!(encode_frame(&decoded), encode_frame(&msg));
        // Unsequenced frames carry zeros.
        let plain = encode_frame(&msg);
        let mut hdr = [0u8; FRAME_HEADER_BYTES];
        hdr.copy_from_slice(&plain[..FRAME_HEADER_BYTES]);
        let parsed = parse_header(&hdr).unwrap();
        assert_eq!((parsed.seq, parsed.src), (0, 0));
    }

    #[test]
    fn epoch_roundtrips_through_every_tag() {
        for msg in sample_messages() {
            let frame = encode_frame_stamped(&msg, 3, 1, 0xCAFE_F00D);
            let mut hdr = [0u8; FRAME_HEADER_BYTES];
            hdr.copy_from_slice(&frame[..FRAME_HEADER_BYTES]);
            let parsed = parse_header(&hdr).expect("clean header");
            assert_eq!(parsed.epoch, 0xCAFE_F00D);
            // The epoch stamp never changes the reassembled message.
            let (decoded, _) = decode_frame(&frame).expect("clean frame");
            assert_eq!(encode_frame(&decoded), encode_frame(&msg));
        }
        // The unstamped spelling is bitwise the all-zero stamp.
        let msg = sample_messages().remove(0);
        assert_eq!(encode_frame(&msg), encode_frame_stamped(&msg, 0, 0, 0));
    }

    #[test]
    fn control_frames_carry_their_operand_and_no_payload() {
        for (msg, operand) in [
            (Message::Ack { upto: 99 }, 99u64),
            (Message::Nack { expect: 3 }, 3u64),
        ] {
            let frame = encode_frame(&msg);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES, "control frames are bare");
            let (decoded, used) = decode_frame(&frame).expect("clean frame");
            assert_eq!(used, FRAME_HEADER_BYTES);
            assert_eq!(decoded.iter(), operand);
            assert_eq!(encode_frame(&decoded), frame);
        }
    }

    #[test]
    fn collective_route_packs_and_unpacks() {
        for phase in [COLLECTIVE_REDUCE, COLLECTIVE_DISTRIBUTE] {
            for origin in [0usize, 1, 13, (1 << 14) - 1] {
                for seg in [0usize, 7, (1 << 16) - 1] {
                    let route = pack_collective(phase, origin, seg);
                    assert_ne!(route, LAYER_GRANULAR_CHUNK);
                    assert_eq!(unpack_collective(route), (phase, origin, seg));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "origin out of range")]
    fn oversized_collective_origin_rejected() {
        pack_collective(COLLECTIVE_REDUCE, 1 << 14, 0);
    }

    #[test]
    fn fused_pooled_add_matches_decode_add_encode() {
        let a = vec![1.5f32, -2.25, 0.0, f32::MAX, -0.0];
        let b = vec![0.5f32, 2.25, -0.0, f32::MIN, 0.0];
        let payload = encode_f32s(&a);
        let fused = add_f32s_pooled(&payload, &b).expect("aligned");
        let naive: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(fused, encode_f32s(&naive), "bitwise-equal to the slow path");
        // Length mismatch and misalignment refuse instead of corrupting.
        assert!(add_f32s_pooled(&payload, &b[..3]).is_none());
        assert!(add_f32s_pooled(&payload[..payload.len() - 1], &b).is_none());
    }

    #[test]
    fn fold_run_is_the_shard_fold_bit_for_bit() {
        let g0 = [1.5f32, -0.0, 0.0, f32::MAX, -2.25, 3.0];
        let g1 = [0.5f32, -0.0, 0.0, f32::MAX, 2.25, -0.0];
        let v = [0.25f32, -0.0, 1.0, 2.0, -3.0, 0.0];
        let (mu, scale) = (0.9f32, -0.5f32);
        let (payload, vb) = (encode_f32s(&g0), encode_f32s(&v));
        let head =
            |f: fn(f32, f32) -> f32| -> Vec<f32> { (0..6).map(|i| f(v[i], g0[i])).collect() };
        let cases = [
            (None, head(|_, p| p)),
            (Some(Seed::Zero), head(|_, p| 0.0 + -0.5 * p)),
            (
                Some(Seed::Momentum(mu, &vb)),
                head(|v, p| 0.9 * v + -0.5 * p),
            ),
        ];
        for (case, (seed, head)) in cases.into_iter().enumerate() {
            let want: Vec<f32> = (0..6).map(|i| head[i] + scale * g1[i]).collect();
            let mut dst = vec![0xA5u8; 24];
            fold_run(&mut dst, &payload, seed, scale, &g1, None);
            assert_eq!(dst, encode_f32s(&want).to_vec(), "case {case}");
            let mut params = v;
            let mut dst = vec![0u8; 24];
            fold_run(&mut dst, &payload, seed, scale, &g1, Some(&mut params));
            assert_eq!(dst, encode_f32s(&want).to_vec(), "case {case}, stepping");
            let stepped: Vec<u32> = (0..6).map(|i| (v[i] + want[i]).to_bits()).collect();
            assert_eq!(params.map(f32::to_bits).to_vec(), stepped, "case {case}");
            let mut again = v;
            add_into(&mut again, &encode_f32s(&want));
            assert_eq!(
                again.map(f32::to_bits),
                params.map(f32::to_bits),
                "case {case}"
            );
        }
    }

    #[test]
    fn fused_pooled_add_reaches_zero_miss_steady_state() {
        // Satellite: ring segments ≥ 8 KiB must recycle pool leases
        // end-to-end. After one warm-up lap per buffer, every further hop is
        // a pool hit — zero misses while the steady-state loop runs.
        let pool = crate::pool::BufPool::new();
        let own = vec![1.0f32; 4096]; // 16 KiB segment
        let seed = encode_f32s(&own);
        // Warm-up: the steady state rotates two buffers (the held hop input
        // and the fresh output), so prime the pool with both — each a miss.
        let w1 = add_f32s_pooled_with(&pool, &seed, &own).unwrap();
        let w2 = add_f32s_pooled_with(&pool, &w1, &own).unwrap();
        drop(w1);
        drop(w2);
        let misses_before = pool.stats().misses;
        let mut payload = seed;
        for _ in 0..64 {
            let next = add_f32s_pooled_with(&pool, &payload, &own).unwrap();
            payload = next; // dropping the previous lease returns it
        }
        let stats = pool.stats();
        assert_eq!(
            stats.misses, misses_before,
            "steady-state ring hops must never miss the pool"
        );
        assert!(stats.hits >= 64, "hits {}", stats.hits);
    }

    #[test]
    fn f32_roundtrip() {
        let vals = vec![1.5f32, -2.25, 0.0, f32::MAX];
        let bytes = encode_f32s(&vals);
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode_f32s(&bytes).unwrap(), vals);
    }

    #[test]
    fn f32_rejects_misaligned() {
        assert!(decode_f32s(&[0u8; 5]).is_none());
        assert_eq!(decode_f32s(&[]).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn codec_id_rides_the_layer_word() {
        for codec in [Codec::Identity, Codec::OneBit] {
            let msg = Message::GradChunk {
                iter: 5,
                layer: 1234,
                chunk: 0,
                codec,
                data: Bytes::from(vec![0u8; 8]),
            };
            let frame = encode_frame(&msg);
            let mut hdr = [0u8; FRAME_HEADER_BYTES];
            hdr.copy_from_slice(&frame[..FRAME_HEADER_BYTES]);
            let parsed = parse_header(&hdr).expect("clean header");
            assert_eq!(parsed.codec.wire_id(), codec.wire_id());
            assert_eq!(parsed.layer, 1234, "codec bits must not leak into layer");
            let (decoded, _) = decode_frame(&frame).expect("clean frame");
            assert_eq!(encode_frame(&decoded), frame);
        }
    }

    #[test]
    fn identity_frames_differ_from_v2_only_in_version_byte() {
        // Guards the bitwise-compat story: codec id 0 leaves every other
        // header byte exactly as version 2 wrote it.
        let msg = sample_messages().remove(0);
        let frame = encode_frame(&msg);
        assert_eq!(frame[2], FRAME_VERSION);
        let (_, layer) = unpack_layer(u32::from_le_bytes([
            frame[12], frame[13], frame[14], frame[15],
        ]));
        assert_eq!(layer, 3);
        assert_eq!(frame[15], 0, "identity codec id is zero");
    }

    #[test]
    fn unknown_codec_id_is_rejected() {
        let frame = encode_frame(&sample_messages()[0]).to_vec();
        // The ids of retired codecs (f16, bf16, top-k) and one never used.
        for id in [2, 3, 4, 0xEE] {
            let mut bad = frame.clone();
            bad[15] = id; // top byte of the layer word (LE) = codec id
            assert!(
                matches!(decode_frame(&bad), Err(FrameError::BadCodec(got)) if got == id),
                "codec id {id}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "layer index out of range")]
    fn oversized_layer_index_rejected() {
        pack_layer(Codec::Identity, MAX_LAYER_INDEX + 1);
    }

    #[test]
    fn codec_registry_identity_is_bitwise_pooled_path() {
        let vals = vec![1.5f32, -2.25, 0.0, f32::MAX, -0.0];
        let mut comp = poseidon_tensor::compress::make_compressor(Codec::Identity, vals.len());
        let enc = encode_codec(comp.as_mut(), &vals);
        assert_eq!(enc, encode_f32s_pooled(&vals));
        let back = decode_codec(Codec::Identity, &enc, vals.len()).expect("clean");
        let bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn codec_registry_surfaces_corruption() {
        let vals = vec![0.25f32; 64];
        let codec = Codec::OneBit;
        let mut comp = poseidon_tensor::compress::make_compressor(codec, vals.len());
        let enc = encode_codec(comp.as_mut(), &vals);
        assert!(decode_codec(codec, &enc, vals.len()).is_ok());
        assert!(decode_codec(codec, &enc[..enc.len() - 1], vals.len()).is_err());
    }
}
