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
//! Two codecs ship:
//!
//! | codec      | bytes per element | lossy | state          |
//! |------------|-------------------|-------|----------------|
//! | `identity` | 4                 | no    | none           |
//! | `onebit`   | ~1/8 (+16 B hdr)  | yes   | error residual |
//!
//! Every decode validates framing and rejects truncated or malformed
//! payloads with a [`CodecError`] instead of panicking — a corrupt frame must
//! be diagnosable, not a process abort.

use crate::quantize::{self, PackedSigns, Scales};
use bytes::Bytes;

/// Identifies the payload encoding of a gradient-bearing frame. The wire
/// carries it as [`Codec::wire_id`], one byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw little-endian f32s — bitwise identical to the historical path.
    Identity,
    /// 1-bit sign quantization with group-mean scales and error feedback
    /// (Seide et al. 2014, the CNTK baseline of paper §5.3).
    OneBit,
}

impl Codec {
    /// One-byte id carried in the frame header.
    pub fn wire_id(self) -> u8 {
        match self {
            Codec::Identity => 0,
            Codec::OneBit => 1,
        }
    }

    /// Inverse of [`Self::wire_id`].
    pub fn from_wire_id(id: u8) -> Option<Self> {
        Some(match id {
            0 => Codec::Identity,
            1 => Codec::OneBit,
            _ => return None,
        })
    }

    /// Payload bytes this codec puts on the wire for `elems` f32 values.
    /// This is the figure the network simulator prices.
    pub fn payload_bytes(self, elems: usize) -> usize {
        match self {
            Codec::Identity => 4 * elems,
            // rows/cols/scales header + 1 bit per element in u64 words; an
            // empty chunk travels as a 1×1 matrix.
            Codec::OneBit => quantize::wire_bytes(elems.max(1)),
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Codec::Identity => write!(f, "identity"),
            Codec::OneBit => write!(f, "onebit"),
        }
    }
}

impl std::str::FromStr for Codec {
    type Err = String;

    /// Parses the CLI spelling: `identity|onebit`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "identity" | "f32" | "none" => Ok(Codec::Identity),
            "onebit" | "1bit" => Ok(Codec::OneBit),
            other => Err(format!(
                "unknown codec {other:?} (expected identity|onebit)"
            )),
        }
    }
}

/// Why a payload failed to decode. Surfaced, counted, never a panic. An
/// unknown codec id never gets this far: the frame decoder refuses it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload is shorter than its own framing claims.
    Truncated,
    /// The payload decodes to a different element count than the receiver
    /// expects for this (layer, chunk).
    LengthMismatch { expect: usize, got: usize },
    /// The frame is inconsistent with what the receiver holds (a frame kind
    /// or a layer it does not take).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
    }
}

/// Checks that `buf` is a well-formed `codec` payload of exactly `elems`
/// values without decoding it (O(1)), so a receiver can drop a bad frame on
/// arrival: everything [`decode_into`] and [`accumulate`] reject is rejected
/// here.
pub fn validate(codec: Codec, buf: &[u8], elems: usize) -> Result<(), CodecError> {
    let (got, want) = match codec {
        Codec::Identity if buf.len().is_multiple_of(4) => (buf.len() / 4, elems),
        Codec::Identity => return Err(CodecError::Truncated),
        // An empty chunk travels as a 1×1 matrix.
        Codec::OneBit => (
            PackedSigns::parse(buf).ok_or(CodecError::Truncated)?.elems,
            elems.max(1),
        ),
    };
    if got != want {
        return Err(CodecError::LengthMismatch { expect: elems, got });
    }
    Ok(())
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
    /// Indexed by `at`: eight elements per byte.
    OneBit(PackedSigns<'a>),
}

impl<'a> FrameCursor<'a> {
    /// A cursor at element 0 of `buf`, or why `buf` is not a well-formed
    /// `codec` payload of exactly `elems` values.
    pub fn new(codec: Codec, buf: &'a [u8], elems: usize) -> Result<Self, CodecError> {
        validate(codec, buf, elems)?;
        let unread = match codec {
            Codec::Identity => Unread::Identity(buf),
            Codec::OneBit => Unread::OneBit(PackedSigns::parse(buf).expect("payload validated")),
        };
        Ok(Self { at: 0, unread })
    }

    /// Feeds the next `out.len()` elements to `f(slot, value)` in slot
    /// order. Every window but a payload's last must be a multiple of 8
    /// elements long — 1-bit packs eight to a byte.
    ///
    /// # Panics
    ///
    /// Panics if the window runs past the end of the payload.
    fn apply(&mut self, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        /// One little-endian f32 per slot. Kept out of line so the two
        /// slices stay distinct arguments: that is what lets the identity
        /// decode compile to a `memcpy` (a third faster on 2 MiB than the
        /// overlap-checked vector loop it becomes when inlined).
        #[inline(never)]
        fn le_f32s(bytes: &[u8], out: &mut [f32], f: impl Fn(&mut f32, f32)) {
            for (o, c) in out.iter_mut().zip(bytes.as_chunks::<4>().0) {
                f(o, f32::from_le_bytes(*c));
            }
        }
        let len = out.len();
        match &mut self.unread {
            Unread::Identity(bytes) => {
                let (head, rest) = bytes.split_at(4 * len);
                *bytes = rest;
                le_f32s(head, out, f)
            }
            Unread::OneBit(packed) => packed.apply(self.at, out, f),
        }
        self.at += len;
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
    FrameCursor::new(codec, buf, out.len())?.apply(out, |o, v| *o = v);
    Ok(())
}

/// `acc[i] += scale · decoded[i]` straight from the payload — per element the
/// same multiply and add as decoding to a vector and running an axpy, so
/// bit-identical to it. `acc` is untouched when the payload is rejected.
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
        for codec in [Codec::Identity, Codec::OneBit] {
            let back = Codec::from_wire_id(codec.wire_id()).unwrap();
            assert_eq!(back.wire_id(), codec.wire_id());
        }
        assert_eq!(Codec::from_wire_id(200), None);
    }

    #[test]
    fn codec_parse_spellings() {
        assert_eq!("identity".parse::<Codec>().unwrap(), Codec::Identity);
        assert_eq!("onebit".parse::<Codec>().unwrap(), Codec::OneBit);
        assert!("zstd".parse::<Codec>().is_err());
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
    fn compressors_are_deterministic_across_instances() {
        let mut a = make_compressor(Codec::OneBit, 64);
        let mut b = make_compressor(Codec::OneBit, 64);
        for round in 0..5 {
            let vals = sample(64, round);
            assert_eq!(
                a.compress(&vals),
                b.compress(&vals),
                "onebit diverged at round {round}"
            );
        }
    }

    #[test]
    fn payload_bytes_matches_encoding() {
        for codec in [Codec::Identity, Codec::OneBit] {
            for n in [1usize, 63, 64, 65, 1000] {
                let mut c = make_compressor(codec, n);
                let buf = c.compress(&sample(n, n as u64));
                assert_eq!(buf.len(), codec.payload_bytes(n), "{codec} n={n}");
            }
        }
    }
}
