//! Pluggable gradient-compression codecs.
//!
//! Poseidon's bandwidth story is about shrinking bytes on the wire per layer:
//! SFB does it structurally, and the system paper (Zhang et al. 2015) layers
//! quantization on top. Following "RPC Considered Harmful", the codec decision
//! lives in the transfer plane rather than at application call sites: every
//! gradient-bearing frame carries a [`Codec`] id, senders compress through the
//! [`Compressor`] trait (which owns any per-tensor error-feedback state and
//! writes straight into the caller's buffer), and receivers consume a payload
//! where it is needed with the stateless [`decode_into`] / [`accumulate`]
//! primitives, or window by window through a [`FrameCursor`] when several
//! payloads fold into one destination — [`decompress`] is the
//! allocate-then-decode wrapper for cold callers.
//!
//! Four codecs ship today:
//!
//! | codec      | bytes per element | lossy | state                 |
//! |------------|-------------------|-------|-----------------------|
//! | `identity` | 4                 | no    | none                  |
//! | `onebit`   | ~1/8 (+16 B hdr)  | yes   | error residual        |
//! | `f16`/`bf16` | 2               | yes   | none                  |
//! | `topk:N`   | 8·k (+8 B hdr)    | yes   | residual accumulation |
//!
//! Every decode validates framing and rejects truncated or malformed
//! payloads with a [`CodecError`] instead of panicking — a corrupt frame must
//! be diagnosable, not a process abort.

use crate::quantize::{self, PackedSigns, Scales};
use bytes::Bytes;

/// Default top-k density: transmit the largest 10% of (residual-corrected)
/// coordinates per call. At 8 bytes per entry that is a 5× wire reduction.
pub const TOPK_DEFAULT_PERMILLE: u16 = 100;

/// Identifies the payload encoding of a gradient-bearing frame.
///
/// The wire carries only [`Codec::wire_id`] (one byte); parameters such as
/// the top-k density affect the encoder only — every payload is
/// self-describing enough to decode without them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw little-endian f32s — bitwise identical to the historical path.
    Identity,
    /// 1-bit sign quantization with group-mean scales and error feedback
    /// (Seide et al. 2014, the CNTK baseline of paper §5.3).
    OneBit,
    /// IEEE 754 binary16 cast, round-to-nearest-even.
    F16,
    /// bfloat16 cast (top 16 bits of the f32, round-to-nearest-even).
    Bf16,
    /// Sparse top-k by residual-corrected magnitude; `permille` of the
    /// coordinates (at least one) are transmitted per call.
    TopK { permille: u16 },
}

impl Codec {
    /// One-byte id carried in the frame header.
    pub fn wire_id(self) -> u8 {
        match self {
            Codec::Identity => 0,
            Codec::OneBit => 1,
            Codec::F16 => 2,
            Codec::Bf16 => 3,
            Codec::TopK { .. } => 4,
        }
    }

    /// Inverse of [`Self::wire_id`]. Encoder-side parameters (top-k density)
    /// are not on the wire, so the decoded `TopK` carries the default; only
    /// the discriminant matters for decoding.
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => Codec::Identity,
            1 => Codec::OneBit,
            2 => Codec::F16,
            3 => Codec::Bf16,
            4 => Codec::TopK {
                permille: TOPK_DEFAULT_PERMILLE,
            },
            _ => return None,
        })
    }

    /// Whether decode(encode(x)) == x for every input.
    pub fn is_lossless(self) -> bool {
        matches!(self, Codec::Identity)
    }

    /// Payload bytes this codec puts on the wire for `elems` f32 values.
    /// This is the figure the cost model and the network simulator price.
    pub fn payload_bytes(self, elems: usize) -> usize {
        match self {
            Codec::Identity => 4 * elems,
            // rows/cols/scales header + 1 bit per element in u64 words; an
            // empty chunk travels as a 1×1 matrix.
            Codec::OneBit => quantize::wire_bytes(elems.max(1)),
            Codec::F16 | Codec::Bf16 => 2 * elems,
            Codec::TopK { permille } => 8 + 8 * topk_k(elems, permille),
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Codec::Identity => write!(f, "identity"),
            Codec::OneBit => write!(f, "onebit"),
            Codec::F16 => write!(f, "f16"),
            Codec::Bf16 => write!(f, "bf16"),
            Codec::TopK { permille } => write!(f, "topk:{permille}"),
        }
    }
}

impl std::str::FromStr for Codec {
    type Err = String;

    /// Parses the CLI spelling: `identity|onebit|f16|bf16|topk[:permille]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "identity" | "f32" | "none" => Ok(Codec::Identity),
            "onebit" | "1bit" => Ok(Codec::OneBit),
            "f16" | "fp16" => Ok(Codec::F16),
            "bf16" => Ok(Codec::Bf16),
            "topk" => Ok(Codec::TopK {
                permille: TOPK_DEFAULT_PERMILLE,
            }),
            other => {
                if let Some(p) = other.strip_prefix("topk:") {
                    let permille: u16 = p.parse().map_err(|e| format!("bad topk density: {e}"))?;
                    if permille == 0 || permille > 1000 {
                        return Err(format!(
                            "topk density must be 1..=1000 permille, got {permille}"
                        ));
                    }
                    Ok(Codec::TopK { permille })
                } else {
                    Err(format!(
                        "unknown codec {other:?} (expected identity|onebit|f16|bf16|topk[:permille])"
                    ))
                }
            }
        }
    }
}

/// Why a payload failed to decode. Surfaced, counted, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame named a codec id this build does not know.
    UnknownCodec(u8),
    /// The payload is shorter than its own framing claims.
    Truncated,
    /// The payload decodes to a different element count than the receiver
    /// expects for this (layer, chunk).
    LengthMismatch { expect: usize, got: usize },
    /// Internal framing is inconsistent (bad index order, out-of-range
    /// coordinate, impossible dimension).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::LengthMismatch { expect, got } => {
                write!(f, "payload decodes {got} values, receiver expects {expect}")
            }
            CodecError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A stateful per-tensor gradient encoder.
///
/// One compressor instance is owned per (layer, chunk) endpoint so lossy
/// codecs can carry error-feedback state across iterations; it must be
/// called with the same element count every time. Decoding is stateless —
/// [`decode_into`] / [`accumulate`] with the codec id from the frame header.
pub trait Compressor: Send + std::fmt::Debug {
    /// The codec this compressor emits, stamped into the frame header.
    fn codec(&self) -> Codec;

    /// Encodes `vals` into `out`, overwriting every byte of it, and updates
    /// any residual state in place — no per-call allocation. Panics unless
    /// `out.len() == self.codec().payload_bytes(vals.len())`.
    fn compress_into(&mut self, vals: &[f32], out: &mut [u8]);

    /// [`Self::compress_into`] a freshly allocated buffer.
    fn compress(&mut self, vals: &[f32]) -> Bytes {
        let mut out = vec![0u8; self.codec().payload_bytes(vals.len())];
        self.compress_into(vals, &mut out);
        Bytes::from(out)
    }

    /// The error-feedback residual carried between calls, flattened. Empty
    /// for stateless codecs. Checkpoint/handoff paths persist this so a
    /// restored endpoint compresses bitwise-identically to one that never
    /// stopped.
    fn residual(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores error-feedback state exported by [`Self::residual`]. No-op
    /// for stateless codecs.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match this compressor's element count.
    fn set_residual(&mut self, residual: &[f32]) {
        assert!(
            residual.is_empty(),
            "stateless codec {} cannot restore a residual",
            self.codec()
        );
    }
}

/// Builds the compressor for `codec` over tensors of `elems` values.
pub fn make_compressor(codec: Codec, elems: usize) -> Box<dyn Compressor> {
    match codec {
        Codec::Identity => Box::new(IdentityCompressor),
        Codec::OneBit => Box::new(OneBitCompressor::new(elems)),
        Codec::F16 => Box::new(CastCompressor { bf16: false }),
        Codec::Bf16 => Box::new(CastCompressor { bf16: true }),
        Codec::TopK { permille } => Box::new(TopKCompressor::new(elems, permille)),
    }
}

/// Checks that `buf` is a well-formed `codec` payload of exactly `elems`
/// values without decoding it (O(1), or one pass over top-k's `k` entries),
/// so a receiver can drop a bad frame on arrival: everything [`decode_into`]
/// and [`accumulate`] reject is rejected here.
pub fn validate(codec: Codec, buf: &[u8], elems: usize) -> Result<(), CodecError> {
    let fixed_width = |width: usize| {
        if !buf.len().is_multiple_of(width) {
            Err(CodecError::Truncated)
        } else if buf.len() / width != elems {
            Err(CodecError::LengthMismatch {
                expect: elems,
                got: buf.len() / width,
            })
        } else {
            Ok(())
        }
    };
    match codec {
        Codec::Identity => fixed_width(4),
        Codec::F16 | Codec::Bf16 => fixed_width(2),
        Codec::OneBit => {
            let got = PackedSigns::parse(buf).ok_or(CodecError::Truncated)?.elems;
            if got != elems.max(1) {
                return Err(CodecError::LengthMismatch { expect: elems, got });
            }
            Ok(())
        }
        Codec::TopK { .. } => validate_topk(buf, elems),
    }
}

/// A [`validate`]d payload consumed front to back, one window of elements at
/// a time — the one decode loop per codec behind every receive primitive.
/// Whole-payload callers take a single window ([`decode_into`],
/// [`accumulate`]); a receiver folding several frames into one destination
/// walks them together in cache-sized windows, so the destination is
/// streamed once however many frames land in it.
#[derive(Debug)]
pub struct FrameCursor<'a> {
    /// Elements consumed so far.
    at: usize,
    unread: Unread<'a>,
}

/// What is left of the payload, per codec.
#[derive(Debug)]
enum Unread<'a> {
    Identity(&'a [u8]),
    F16(&'a [u8]),
    Bf16(&'a [u8]),
    /// Indexed by `at`: eight elements per byte.
    OneBit(PackedSigns<'a>),
    /// The `(index, value)` entries not yet reached, strictly ascending.
    TopK(&'a [u8]),
}

impl<'a> FrameCursor<'a> {
    /// A cursor at element 0 of `buf`, or why `buf` is not a well-formed
    /// `codec` payload of exactly `elems` values.
    pub fn new(codec: Codec, buf: &'a [u8], elems: usize) -> Result<Self, CodecError> {
        validate(codec, buf, elems)?;
        let unread = match codec {
            Codec::Identity => Unread::Identity(buf),
            Codec::F16 => Unread::F16(buf),
            Codec::Bf16 => Unread::Bf16(buf),
            Codec::OneBit => Unread::OneBit(PackedSigns::parse(buf).expect("payload validated")),
            Codec::TopK { .. } => Unread::TopK(&buf[8..]),
        };
        Ok(Self { at: 0, unread })
    }

    /// Feeds the next `out.len()` elements to `f(slot, value)` in slot order
    /// (top-k: only the slots it lists). Every window but a payload's last
    /// must be a multiple of 8 elements long — 1-bit packs eight to a byte.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past the end of the payload.
    fn apply(&mut self, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        /// Splits the next `len` bytes off the front of `bytes`.
        fn take<'a>(bytes: &mut &'a [u8], len: usize) -> &'a [u8] {
            let (head, rest) = bytes.split_at(len);
            *bytes = rest;
            head
        }
        /// One `W`-byte little-endian value per slot. Kept out of line so
        /// the two slices stay distinct arguments: that is what lets the
        /// identity decode compile to a `memcpy` (a third faster on 2 MiB
        /// than the overlap-checked vector loop it becomes when inlined).
        #[inline(never)]
        fn fixed_width<const W: usize>(
            bytes: &[u8],
            out: &mut [f32],
            value: impl Fn([u8; W]) -> f32,
            f: impl Fn(&mut f32, f32),
        ) {
            for (o, c) in out.iter_mut().zip(bytes.as_chunks::<W>().0) {
                f(o, value(*c));
            }
        }
        let len = out.len();
        let (start, end) = (self.at, self.at + len);
        match &mut self.unread {
            Unread::Identity(bytes) => {
                fixed_width(take(bytes, 4 * len), out, f32::from_le_bytes, f)
            }
            Unread::F16(bytes) => fixed_width(
                take(bytes, 2 * len),
                out,
                |c| f16_bits_to_f32(u16::from_le_bytes(c)),
                f,
            ),
            Unread::Bf16(bytes) => fixed_width(
                take(bytes, 2 * len),
                out,
                |c| bf16_bits_to_f32(u16::from_le_bytes(c)),
                f,
            ),
            Unread::OneBit(packed) => packed.apply(start, out, f),
            Unread::TopK(entries) => {
                while let Some(e) = entries.first_chunk::<8>() {
                    let idx = u32::from_le_bytes([e[0], e[1], e[2], e[3]]) as usize;
                    if idx >= end {
                        break;
                    }
                    f(
                        &mut out[idx - start],
                        f32::from_le_bytes([e[4], e[5], e[6], e[7]]),
                    );
                    *entries = &entries[8..];
                }
            }
        }
        self.at = end;
    }

    /// `acc[i] += scale · decoded[at + i]` over the next `acc.len()`
    /// elements: one window of [`accumulate`].
    pub fn accumulate_next(&mut self, scale: f32, acc: &mut [f32]) {
        self.apply(acc, |a, v| *a += scale * v);
    }
}

/// Decodes a payload of `out.len()` values over `out`, which is untouched
/// when the payload is rejected.
pub fn decode_into(codec: Codec, buf: &[u8], out: &mut [f32]) -> Result<(), CodecError> {
    let mut cursor = FrameCursor::new(codec, buf, out.len())?;
    if matches!(codec, Codec::TopK { .. }) {
        out.fill(0.0);
    }
    cursor.apply(out, |o, v| *o = v);
    Ok(())
}

/// `acc[i] += scale · decoded[i]` straight from the payload — per element the
/// same multiply and add as decoding to a vector and running an axpy, so
/// bit-identical to it, except that top-k touches only its `k` listed slots
/// where the axpy adds `scale · 0.0` to the rest (a no-op but on a `-0.0`
/// accumulator under a non-negative scale). `acc` is untouched when the
/// payload is rejected.
pub fn accumulate(codec: Codec, buf: &[u8], scale: f32, acc: &mut [f32]) -> Result<(), CodecError> {
    FrameCursor::new(codec, buf, acc.len())?.accumulate_next(scale, acc);
    Ok(())
}

/// Allocate-then-[`decode_into`], for callers off the hot path.
pub fn decompress(codec: Codec, buf: &[u8], elems: usize) -> Result<Vec<f32>, CodecError> {
    let mut out = vec![0.0; elems];
    decode_into(codec, buf, &mut out)?;
    Ok(out)
}

fn assert_payload_len(codec: Codec, vals: &[f32], out: &[u8]) {
    assert_eq!(
        out.len(),
        codec.payload_bytes(vals.len()),
        "{codec} payload buffer length"
    );
}

// ---------------------------------------------------------------------------
// Identity

/// Raw little-endian f32s.
#[derive(Debug)]
pub struct IdentityCompressor;

impl Compressor for IdentityCompressor {
    fn codec(&self) -> Codec {
        Codec::Identity
    }

    fn compress_into(&mut self, vals: &[f32], out: &mut [u8]) {
        assert_payload_len(Codec::Identity, vals, out);
        for (dst, v) in out.chunks_exact_mut(4).zip(vals) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// 1-bit

/// [`quantize::encode_in_place`] over the flat chunk, carrying the
/// Seide-style error residual between calls as a *carried correction*: the
/// last call's effective gradient and the scales it was encoded under. What
/// that call quantized away is their difference, formed in a register by the
/// next call's single pass instead of by a second pass of this one.
#[derive(Debug)]
pub struct OneBitCompressor {
    elems: usize,
    /// `elems.max(1)` long: an empty chunk still travels as a 1×1 matrix.
    eff: Vec<f32>,
    carry: Scales,
}

impl OneBitCompressor {
    pub fn new(elems: usize) -> Self {
        Self {
            elems,
            eff: vec![0.0; elems.max(1)],
            carry: Scales::ZERO,
        }
    }
}

impl Compressor for OneBitCompressor {
    fn codec(&self) -> Codec {
        Codec::OneBit
    }

    fn compress_into(&mut self, vals: &[f32], out: &mut [u8]) {
        assert_eq!(vals.len(), self.elems, "chunk size changed between calls");
        assert_payload_len(Codec::OneBit, vals, out);
        let vals = if vals.is_empty() { &[0.0][..] } else { vals };
        quantize::encode_in_place(&mut self.eff, &mut self.carry, vals, out);
    }

    /// The corrected values — `eff − decoded`, the same f32 subtraction the
    /// next call performs — so the exported bytes are those of a compressor
    /// that stored its residual eagerly.
    fn residual(&self) -> Vec<f32> {
        let eff = &self.eff[..self.elems];
        eff.iter().map(|&e| self.carry.owed(e)).collect()
    }

    fn set_residual(&mut self, residual: &[f32]) {
        assert_eq!(residual.len(), self.elems, "residual length mismatch");
        self.eff[..self.elems].copy_from_slice(residual);
        self.carry = Scales::ZERO;
    }
}

// ---------------------------------------------------------------------------
// f16 / bf16 casts

/// Stateless half-precision casts, 2 bytes per element little-endian.
#[derive(Debug)]
pub struct CastCompressor {
    bf16: bool,
}

impl Compressor for CastCompressor {
    fn codec(&self) -> Codec {
        if self.bf16 {
            Codec::Bf16
        } else {
            Codec::F16
        }
    }

    fn compress_into(&mut self, vals: &[f32], out: &mut [u8]) {
        assert_payload_len(self.codec(), vals, out);
        for (dst, &v) in out.chunks_exact_mut(2).zip(vals) {
            let h = if self.bf16 {
                f32_to_bf16_bits(v)
            } else {
                f32_to_f16_bits(v)
            };
            dst.copy_from_slice(&h.to_le_bytes());
        }
    }
}

/// f32 → IEEE 754 binary16 with round-to-nearest-even (no stable `f16` in
/// the toolchain, so the conversion is spelled out on the bit patterns).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN; keep NaNs quiet so a payload round-trip stays NaN.
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal half: shift the full 24-bit significand right.
        let man = man | 0x0080_0000;
        let shift = (1 - e) as u32 + 13;
        let half = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let midpoint = 1u32 << (shift - 1);
        let half = if rem > midpoint || (rem == midpoint && half & 1 == 1) {
            half + 1
        } else {
            half
        };
        return sign | half as u16;
    }
    let mut out = (sign as u32) | ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    // Rounding up may carry into the exponent; that correctly rounds the
    // largest finite halves to infinity.
    if rem > 0x1000 || (rem == 0x1000 && out & 1 == 1) {
        out += 1;
    }
    out as u16
}

/// IEEE 754 binary16 → f32 (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    let bits = if exp == 0 {
        if man == 0 {
            sign
        } else {
            // Subnormal half: renormalize into an f32 exponent.
            let mut e: i32 = 127 - 15 + 1;
            let mut m = man;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((m & 0x3ff) << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// f32 → bfloat16 (top 16 bits) with round-to-nearest-even.
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Truncation could turn a NaN into inf; force a quiet NaN instead.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = 0x7fff + ((bits >> 16) & 1);
    ((bits + round) >> 16) as u16
}

/// bfloat16 → f32 (exact: pad with zero mantissa bits).
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

// ---------------------------------------------------------------------------
// Top-k with residual accumulation

/// Sparse top-k by residual-corrected magnitude.
///
/// Every call adds the fresh gradient into the residual, transmits the `k`
/// largest coordinates by |residual| (ties broken by ascending index so the
/// selection is a total order — bitwise deterministic across runs), and
/// zeroes the transmitted slots. Untransmitted mass stays in the residual
/// and drains on later calls, the same delayed-update behaviour as the
/// 1-bit error feedback.
///
/// Payload: `u32 n ++ u32 k ++ k × (u32 index, f32 value)` with indices
/// strictly ascending — violations are rejected as corruption.
#[derive(Debug)]
pub struct TopKCompressor {
    permille: u16,
    residual: Vec<f32>,
    /// Index scratch for the magnitude ranking, kept between calls.
    order: Vec<u32>,
}

fn topk_k(elems: usize, permille: u16) -> usize {
    ((elems * permille as usize) / 1000).max(1).min(elems)
}

impl TopKCompressor {
    pub fn new(elems: usize, permille: u16) -> Self {
        Self {
            permille,
            residual: vec![0.0; elems],
            order: Vec::with_capacity(elems),
        }
    }
}

impl Compressor for TopKCompressor {
    fn codec(&self) -> Codec {
        Codec::TopK {
            permille: self.permille,
        }
    }

    fn compress_into(&mut self, vals: &[f32], out: &mut [u8]) {
        assert_eq!(vals.len(), self.residual.len(), "chunk size changed");
        assert_payload_len(self.codec(), vals, out);
        let residual = &mut self.residual;
        for (r, &v) in residual.iter_mut().zip(vals) {
            *r += v;
        }
        let n = residual.len();
        let k = topk_k(n, self.permille);
        // Total order: |value| descending (on the bit pattern so NaN-free
        // data sorts identically everywhere), index ascending on ties.
        self.order.clear();
        self.order.extend(0..n as u32);
        // A total order has exactly one set of `k` smallest, so selecting
        // it in O(n) and sorting it by index is the payload a full sort gives.
        if k > 0 {
            self.order.select_nth_unstable_by(k - 1, |&a, &b| {
                let ka = residual[a as usize].abs().to_bits();
                let kb = residual[b as usize].abs().to_bits();
                kb.cmp(&ka).then(a.cmp(&b))
            });
        }
        let picked = &mut self.order[..k];
        picked.sort_unstable();

        out[0..4].copy_from_slice(&(n as u32).to_le_bytes());
        out[4..8].copy_from_slice(&(k as u32).to_le_bytes());
        for (entry, &i) in out[8..].chunks_exact_mut(8).zip(picked.iter()) {
            let slot = &mut residual[i as usize];
            entry[..4].copy_from_slice(&i.to_le_bytes());
            entry[4..].copy_from_slice(&slot.to_le_bytes());
            *slot = 0.0;
        }
    }

    fn residual(&self) -> Vec<f32> {
        self.residual.clone()
    }

    fn set_residual(&mut self, residual: &[f32]) {
        assert_eq!(
            residual.len(),
            self.residual.len(),
            "residual length mismatch"
        );
        self.residual.copy_from_slice(residual);
    }
}

fn validate_topk(buf: &[u8], elems: usize) -> Result<(), CodecError> {
    if buf.len() < 8 {
        return Err(CodecError::Truncated);
    }
    let n = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let k = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if n != elems {
        return Err(CodecError::LengthMismatch {
            expect: elems,
            got: n,
        });
    }
    if k > n.max(1) {
        return Err(CodecError::Malformed("k exceeds element count"));
    }
    if buf.len() != 8 + 8 * k {
        return Err(CodecError::Truncated);
    }
    let mut prev: Option<u32> = None;
    for e in buf[8..].chunks_exact(8) {
        let idx = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
        if idx as usize >= elems {
            return Err(CodecError::Malformed("index out of range"));
        }
        if prev.is_some_and(|p| idx <= p) {
            return Err(CodecError::Malformed("indices not strictly ascending"));
        }
        prev = Some(idx);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u64) -> Vec<f32> {
        // Deterministic pseudo-random values without pulling in rand here.
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as i32 as f32) / (1 << 20) as f32
            })
            .collect()
    }

    #[test]
    fn wire_ids_roundtrip() {
        for codec in [
            Codec::Identity,
            Codec::OneBit,
            Codec::F16,
            Codec::Bf16,
            Codec::TopK { permille: 100 },
        ] {
            let back = Codec::from_wire_id(codec.wire_id()).unwrap();
            assert_eq!(back.wire_id(), codec.wire_id());
        }
        assert_eq!(Codec::from_wire_id(200), None);
    }

    #[test]
    fn codec_parse_spellings() {
        assert_eq!("identity".parse::<Codec>().unwrap(), Codec::Identity);
        assert_eq!("onebit".parse::<Codec>().unwrap(), Codec::OneBit);
        assert_eq!("fp16".parse::<Codec>().unwrap(), Codec::F16);
        assert_eq!("bf16".parse::<Codec>().unwrap(), Codec::Bf16);
        assert_eq!(
            "topk:50".parse::<Codec>().unwrap(),
            Codec::TopK { permille: 50 }
        );
        assert!("zstd".parse::<Codec>().is_err());
        assert!("topk:0".parse::<Codec>().is_err());
    }

    #[test]
    fn identity_is_bitwise() {
        let vals = sample(257, 3);
        let mut c = IdentityCompressor;
        let buf = c.compress(&vals);
        let back = decompress(Codec::Identity, &buf, vals.len()).unwrap();
        assert_eq!(
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f16_known_values_and_roundtrip() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // max finite half
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00); // overflow → inf
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Every exactly-representable half round-trips bit-exactly.
        for h in 0..=0xffffu16 {
            let f = f16_bits_to_f32(h);
            if f.is_nan() {
                continue;
            }
            assert_eq!(f32_to_f16_bits(f), h, "half {h:#06x} did not roundtrip");
        }
    }

    #[test]
    fn bf16_roundtrips_exact_values() {
        for h in [0x0000u16, 0x8000, 0x3f80, 0xc000, 0x7f7f] {
            let f = bf16_bits_to_f32(h);
            assert_eq!(f32_to_bf16_bits(f), h);
        }
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        // RNE: 1.0 + one-below-half-ulp rounds down, above rounds up.
        let ulp = bf16_bits_to_f32(0x3f81) - 1.0;
        assert_eq!(f32_to_bf16_bits(1.0 + 0.49 * ulp), 0x3f80);
        assert_eq!(f32_to_bf16_bits(1.0 + 0.51 * ulp), 0x3f81);
    }

    #[test]
    fn cast_codecs_bound_error() {
        let vals = sample(300, 9);
        for codec in [Codec::F16, Codec::Bf16] {
            let mut c = make_compressor(codec, vals.len());
            let buf = c.compress(&vals);
            assert_eq!(buf.len(), codec.payload_bytes(vals.len()));
            let back = decompress(codec, &buf, vals.len()).unwrap();
            for (a, b) in vals.iter().zip(&back) {
                let tol = a.abs() * 0.01 + 1e-3;
                assert!((a - b).abs() <= tol, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn onebit_matches_quantizer_and_checks_len() {
        let vals = sample(100, 5);
        let mut c = make_compressor(Codec::OneBit, vals.len());
        let buf = c.compress(&vals);
        let back = decompress(Codec::OneBit, &buf, vals.len()).unwrap();
        assert_eq!(back.len(), vals.len());
        // Group-mean property: decoded values take exactly two magnitudes.
        let mut mags: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        mags.sort_unstable();
        mags.dedup();
        assert!(mags.len() <= 2);
        assert!(matches!(
            decompress(Codec::OneBit, &buf, vals.len() + 1),
            Err(CodecError::LengthMismatch { .. })
        ));
        assert!(matches!(
            decompress(Codec::OneBit, &buf[..buf.len() - 3], vals.len()),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn topk_transmits_largest_and_accumulates_residual() {
        let mut c = TopKCompressor::new(10, 100); // k = 1
        let vals = vec![0.1, -5.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3];
        let buf = c.compress(&vals);
        let back = decompress(c.codec(), &buf, 10).unwrap();
        assert_eq!(back[1], -5.0);
        assert_eq!(back.iter().filter(|v| **v != 0.0).count(), 1);
        // Second call with zero input drains the next-largest residual.
        let buf = c.compress(&[0.0; 10]);
        let back = decompress(c.codec(), &buf, 10).unwrap();
        assert_eq!(back[9], 0.3);
    }

    #[test]
    fn topk_rejects_corruption() {
        let mut c = TopKCompressor::new(16, 500);
        let buf = c.compress(&sample(16, 2));
        assert!(decompress(c.codec(), &buf, 16).is_ok());
        assert!(matches!(
            decompress(c.codec(), &buf[..buf.len() - 1], 16),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            decompress(c.codec(), &buf, 17),
            Err(CodecError::LengthMismatch { .. })
        ));
        // Swap two index words so ascending order breaks.
        let mut bad = buf.to_vec();
        let (a, b) = (8, 16);
        for i in 0..4 {
            bad.swap(a + i, b + i);
        }
        assert!(matches!(
            decompress(c.codec(), &bad, 16),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn compressors_are_deterministic_across_instances() {
        for codec in [
            Codec::OneBit,
            Codec::F16,
            Codec::Bf16,
            Codec::TopK { permille: 250 },
        ] {
            let mut a = make_compressor(codec, 64);
            let mut b = make_compressor(codec, 64);
            for round in 0..5 {
                let vals = sample(64, round);
                assert_eq!(
                    a.compress(&vals),
                    b.compress(&vals),
                    "{codec} diverged at round {round}"
                );
            }
        }
    }

    #[test]
    fn payload_bytes_matches_encoding() {
        for codec in [
            Codec::Identity,
            Codec::OneBit,
            Codec::F16,
            Codec::Bf16,
            Codec::TopK { permille: 125 },
        ] {
            for n in [1usize, 63, 64, 65, 1000] {
                let mut c = make_compressor(codec, n);
                let buf = c.compress(&sample(n, n as u64));
                assert_eq!(buf.len(), codec.payload_bytes(n), "{codec} n={n}");
            }
        }
    }
}
