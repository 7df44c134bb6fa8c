//! 1-bit gradient quantization with error-residual feedback.
//!
//! This is the communication-reduction baseline the paper compares against in
//! Section 5.3 (the strategy used by CNTK, Seide et al. 2014). Each gradient
//! element is quantized to its sign; the magnitude information is carried by
//! two per-matrix scales (the mean of the positive and of the negative
//! elements), and the quantization error is added back into the *next*
//! iteration's gradient ("residual feedback"), so the error behaves like a
//! delayed update rather than a lost one.
//!
//! Wire cost: 1 bit per element plus two f32 scales, i.e. a 32× reduction on
//! large matrices — but statistically lossy, which Figure 11 of the paper
//! (and our reproduction of it) shows as slower convergence.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::isa::Isa;
pub use crate::isa::Tier;
use crate::Matrix;

/// f64 lanes per scale sum: element `i` of a chunk adds into lane
/// `i % SUM_LANES` of its group, and a group's sum is its lanes folded in
/// ascending lane order from lane 0. Part of the codec's definition — the
/// scalar oracle and every compiled copy of the fast path share it.
pub const SUM_LANES: usize = 16;

/// Dense bit-packed 1-bit encoding of a gradient matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedGrad {
    rows: usize,
    cols: usize,
    /// Mean magnitude assigned to elements quantized as positive.
    pos_scale: f32,
    /// Mean magnitude assigned to elements quantized as negative (≤ 0).
    neg_scale: f32,
    /// Bit-packed signs, row-major, 1 = positive.
    bits: Vec<u64>,
}

impl QuantizedGrad {
    /// Shape of the encoded gradient.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of bytes this encoding puts on the wire.
    ///
    /// Two dimension words, two scales and the packed bit vector. This is the
    /// figure the traffic accounting uses.
    pub fn wire_bytes(&self) -> usize {
        4 + 4 + 4 + 4 + self.bits.len() * 8
    }

    /// Serialises to the wire format counted by [`Self::wire_bytes`].
    pub fn to_bytes(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(self.wire_bytes());
        buf.put_u32_le(self.rows as u32);
        buf.put_u32_le(self.cols as u32);
        buf.put_f32_le(self.pos_scale);
        buf.put_f32_le(self.neg_scale);
        for &w in &self.bits {
            buf.put_u64_le(w);
        }
        buf.freeze()
    }

    /// Decodes a buffer produced by [`Self::to_bytes`].
    ///
    /// Returns `None` if the buffer is truncated or declares a zero dimension.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let packed = PackedSigns::parse(buf)?;
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        Some(Self {
            rows: packed.rows,
            cols: packed.elems / packed.rows,
            pos_scale: packed.scales.pos,
            neg_scale: packed.scales.neg,
            bits: packed.bits.chunks_exact(8).map(word).collect(),
        })
    }

    /// Decodes into a dense gradient matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
            let word = self.bits[i / 64];
            let bit = (word >> (i % 64)) & 1;
            *v = if bit == 1 {
                self.pos_scale
            } else {
                self.neg_scale
            };
        }
        out
    }
}

/// Stateful 1-bit quantizer for one parameter matrix.
///
/// Keeps the error residual between calls; the residual is added to the next
/// gradient before quantization, as in Seide et al.
#[derive(Clone, Debug)]
pub struct OneBitQuantizer {
    residual: Matrix,
}

impl OneBitQuantizer {
    /// Creates a quantizer for gradients of shape `rows × cols` with a zero
    /// initial residual.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            residual: Matrix::zeros(rows, cols),
        }
    }

    /// Current error residual (what has been "owed" to the model so far).
    pub fn residual(&self) -> &Matrix {
        &self.residual
    }

    /// Restores a residual exported earlier (checkpoint/handoff restore).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the shape given at construction.
    pub fn set_residual(&mut self, residual: Matrix) {
        assert_eq!(
            residual.shape(),
            self.residual.shape(),
            "residual shape mismatch"
        );
        self.residual = residual;
    }

    /// Quantizes `grad + residual` to one bit per element and updates the
    /// residual to the new quantization error.
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s shape differs from the shape given at construction.
    pub fn quantize(&mut self, grad: &Matrix) -> QuantizedGrad {
        assert_eq!(
            grad.shape(),
            self.residual.shape(),
            "gradient shape changed between quantize calls"
        );
        let (rows, cols) = grad.shape();
        let n = rows * cols;

        // Effective gradient = fresh gradient + carried error.
        let mut eff = grad.clone();
        eff.add_assign(&self.residual);

        // Split by sign; scales are the per-group means so the reconstruction
        // is unbiased within each group. Element `i` adds into f64 lane
        // `i % SUM_LANES` of its group and the lanes fold in ascending order:
        // the summation order is part of the encoding, because the fast path
        // must reproduce these scales bit for bit while keeping
        // `SUM_LANES` independent adds in flight.
        let mut pos_lanes = [0.0f64; SUM_LANES];
        let mut pos_cnt = 0usize;
        let mut neg_lanes = [0.0f64; SUM_LANES];
        let mut neg_cnt = 0usize;
        for (i, &v) in eff.as_slice().iter().enumerate() {
            if v > 0.0 {
                pos_lanes[i % SUM_LANES] += v as f64;
                pos_cnt += 1;
            } else {
                neg_lanes[i % SUM_LANES] += v as f64;
                neg_cnt += 1;
            }
        }
        let mean = |lanes: &[f64; SUM_LANES], cnt: usize| {
            let mut sum = lanes[0];
            for lane in &lanes[1..] {
                sum += lane;
            }
            if cnt > 0 {
                (sum / cnt as f64) as f32
            } else {
                0.0
            }
        };
        let pos_scale = mean(&pos_lanes, pos_cnt);
        let neg_scale = mean(&neg_lanes, neg_cnt);

        let mut bits = vec![0u64; n.div_ceil(64)];
        for (i, &v) in eff.as_slice().iter().enumerate() {
            if v > 0.0 {
                bits[i / 64] |= 1 << (i % 64);
            }
        }

        let q = QuantizedGrad {
            rows,
            cols,
            pos_scale,
            neg_scale,
            bits,
        };

        // New residual = effective gradient - what the receiver will decode.
        let decoded = q.dequantize();
        self.residual = eff;
        self.residual.sub_assign(&decoded);
        q
    }
}

// ---------------------------------------------------------------------------
// Flat in-place fast path: what the codec plane runs. The types above stay as
// the scalar reference it is tested against bit for bit.

/// Bytes ahead of the packed signs: `rows`, `cols`, `pos_scale`, `neg_scale`.
pub const HEADER_BYTES: usize = 16;

/// Wire bytes of a `1 × elems` encoding.
pub fn wire_bytes(elems: usize) -> usize {
    HEADER_BYTES + elems.div_ceil(64) * 8
}

/// The two group means of one encoding: what a receiver decodes for a
/// positive and for a non-positive element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scales {
    pub pos: f32,
    pub neg: f32,
}

impl Scales {
    /// Nothing to subtract: `owed(r)` is `r` itself, bit for bit (`-0.0`
    /// keeps its sign under `- +0.0`).
    pub const ZERO: Scales = Scales { pos: 0.0, neg: 0.0 };

    /// The value a receiver reconstructs for an element whose effective
    /// gradient was `eff`.
    #[inline(always)]
    fn decoded(self, eff: f32) -> f32 {
        if eff > 0.0 {
            self.pos
        } else {
            self.neg
        }
    }

    /// The quantization error of an element encoded under these scales from
    /// the effective gradient `eff` — the Seide residual, one f32 subtraction.
    #[inline(always)]
    pub fn owed(self, eff: f32) -> f32 {
        eff - self.decoded(eff)
    }
}

/// Folds a group's lanes in ascending lane order from lane 0.
fn fold_lanes(lanes: &[f64; SUM_LANES]) -> f64 {
    lanes[1..].iter().fold(lanes[0], |sum, &lane| sum + lane)
}

/// A group's scale: the mean of its `cnt` members, `0.0` for an empty group.
fn group_mean(lanes: &[f64; SUM_LANES], cnt: usize) -> f32 {
    if cnt > 0 {
        (fold_lanes(lanes) / cnt as f64) as f32
    } else {
        0.0
    }
}

/// 1-bit encodes the chunk's effective gradient as a `1 × n` matrix straight
/// into `out` — bit for bit what [`OneBitQuantizer::quantize`] then
/// [`QuantizedGrad::to_bytes`] produce, in **one** pass over the chunk.
///
/// `eff` and `carry` are the stream's state: the effective gradient of the
/// previous call and the scales it was encoded under, whose difference
/// [`Scales::owed`] is the residual that call left. This call forms that
/// residual in a register, adds `vals`, stores the new effective gradient
/// over `eff` and the new scales over `carry`; a fresh or restored stream
/// holds its residual in `eff` with [`Scales::ZERO`].
///
/// Every element adds, as an f64, into lane `i % SUM_LANES` of its group's
/// sum (and `+0.0` into the other group's, which never changes an IEEE sum
/// that started at `+0.0`), so no add waits for the one before it.
///
/// Panics if `vals` is empty, or `eff`/`out` have the wrong length.
pub fn encode_in_place(eff: &mut [f32], carry: &mut Scales, vals: &[f32], out: &mut [u8]) {
    encode_in_place_on(Tier::widest(), eff, carry, vals, out)
}

/// [`encode_in_place`] through one named compiled copy.
pub fn encode_in_place_on(
    tier: Tier,
    eff: &mut [f32],
    carry: &mut Scales,
    vals: &[f32],
    out: &mut [u8],
) {
    let n = vals.len();
    assert!(n > 0 && eff.len() == n, "1-bit encode of {n} values");
    assert_eq!(out.len(), wire_bytes(n), "1-bit payload length");
    let cols = u32::try_from(n).expect("1-bit chunk exceeds u32 elements");
    let (hdr, bits) = out.split_at_mut(HEADER_BYTES);
    let sums = match tier.isa() {
        Isa::Baseline => encode_body(eff, *carry, vals, bits, sign_bits),
        // SAFETY: a `Tier` is only ever built around an `Isa` whose feature
        // was detected on this CPU — `avx2` here, which is all the copy needs.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { encode_avx2(eff, *carry, vals, bits) },
        // SAFETY: likewise, `avx512f` was detected.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { encode_avx512(eff, *carry, vals, bits) },
    };
    *carry = Scales {
        pos: group_mean(&sums.pos, sums.pos_cnt),
        neg: group_mean(&sums.neg, n - sums.pos_cnt),
    };
    hdr[0..4].copy_from_slice(&1u32.to_le_bytes());
    hdr[4..8].copy_from_slice(&cols.to_le_bytes());
    hdr[8..12].copy_from_slice(&carry.pos.to_le_bytes());
    hdr[12..16].copy_from_slice(&carry.neg.to_le_bytes());
}

/// What one encode pass learns about the chunk besides its sign bits.
struct GroupSums {
    pos: [f64; SUM_LANES],
    neg: [f64; SUM_LANES],
    pos_cnt: usize,
}

/// One step's worth of elements: a sign half-word on the wire.
type Step = [f32; SUM_LANES];

/// Bit `j` set where `e[j] > 0.0`.
#[inline(always)]
fn sign_bits(e: &Step) -> u16 {
    let mut signs = 0u16;
    for (j, &e) in e.iter().enumerate() {
        signs |= ((e > 0.0) as u16) << j;
    }
    signs
}

/// `scales.pos` where bit `j` of `signs` is set, `scales.neg` elsewhere.
#[inline(always)]
fn select(signs: u16, scales: Scales) -> Step {
    std::array::from_fn(|j| {
        if signs & (1 << j) != 0 {
            scales.pos
        } else {
            scales.neg
        }
    })
}

/// [`sign_bits`] as two compares and two move-masks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sign_bits_avx2(e: &Step) -> u16 {
    use std::arch::x86_64::{
        _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_setzero_ps, _CMP_GT_OQ,
    };
    let (lo, hi) = e.split_at(SUM_LANES / 2);
    // SAFETY: each half of `e` is a live `[f32]` of 8, the 32 bytes a load reads.
    let (lo, hi) = unsafe { (_mm256_loadu_ps(lo.as_ptr()), _mm256_loadu_ps(hi.as_ptr())) };
    let zero = _mm256_setzero_ps();
    let lo = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(lo, zero));
    let hi = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(hi, zero));
    (lo | hi << 8) as u16
}

/// [`sign_bits`] as one compare-to-mask.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sign_bits_avx512(e: &Step) -> u16 {
    use std::arch::x86_64::{_mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_setzero_ps, _CMP_GT_OQ};
    // SAFETY: `e` is a live `[f32; 16]`, the 64 bytes the load reads.
    let e = unsafe { _mm512_loadu_ps(e.as_ptr()) };
    _mm512_cmp_ps_mask::<_CMP_GT_OQ>(e, _mm512_setzero_ps())
}

/// [`select`] as a bit test and a blend per half.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn select_avx2(signs: u16, scales: Scales) -> Step {
    use std::arch::x86_64::{
        _mm256_and_si256, _mm256_blendv_ps, _mm256_castsi256_ps, _mm256_cmpeq_epi32,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_storeu_ps,
    };
    let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let (pos, neg) = (_mm256_set1_ps(scales.pos), _mm256_set1_ps(scales.neg));
    let mut out = [0.0; SUM_LANES];
    for (half, byte) in out.chunks_exact_mut(8).zip(signs.to_le_bytes()) {
        let up = _mm256_and_si256(_mm256_set1_epi32(byte as i32), lane_bit);
        let up = _mm256_castsi256_ps(_mm256_cmpeq_epi32(up, lane_bit));
        // SAFETY: `half` is a live `[f32]` of 8, the 32 bytes the store writes.
        unsafe { _mm256_storeu_ps(half.as_mut_ptr(), _mm256_blendv_ps(neg, pos, up)) };
    }
    out
}

/// [`select`] as one mask blend.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn select_avx512(signs: u16, scales: Scales) -> Step {
    use std::arch::x86_64::{_mm512_mask_blend_ps, _mm512_set1_ps, _mm512_storeu_ps};
    let picked = _mm512_mask_blend_ps(
        signs,
        _mm512_set1_ps(scales.neg),
        _mm512_set1_ps(scales.pos),
    );
    let mut out = [0.0; SUM_LANES];
    // SAFETY: `out` is a live `[f32; 16]`, the 64 bytes the store writes.
    unsafe { _mm512_storeu_ps(out.as_mut_ptr(), picked) };
    out
}

/// The encode pass: `SUM_LANES` elements per step, each step one sign
/// half-word. Plain safe arithmetic on fixed-size arrays, compiled once per
/// ISA tier below; `sign_bits` is [`sign_bits`] or a tier's spelling of it.
#[inline(always)]
fn encode_body(
    eff: &mut [f32],
    carry: Scales,
    vals: &[f32],
    bits: &mut [u8],
    sign_bits: impl Fn(&Step) -> u16,
) -> GroupSums {
    let mut sums = GroupSums {
        pos: [0.0; SUM_LANES],
        neg: [0.0; SUM_LANES],
        pos_cnt: 0,
    };
    let tail_at = eff.len() / SUM_LANES * SUM_LANES;
    let (eff_full, eff_tail) = eff.split_at_mut(tail_at);
    let (vals_full, vals_tail) = vals.split_at(tail_at);
    let (bits_full, bits_tail) = bits.split_at_mut(tail_at / 8);
    let steps = eff_full
        .chunks_exact_mut(SUM_LANES)
        .zip(vals_full.chunks_exact(SUM_LANES));
    for ((r, g), half_word) in steps.zip(bits_full.chunks_exact_mut(SUM_LANES / 8)) {
        let mut e: Step = [0.0; SUM_LANES];
        for j in 0..SUM_LANES {
            e[j] = g[j] + carry.owed(r[j]);
            let mask = 0u32.wrapping_sub((e[j] > 0.0) as u32);
            sums.pos[j] += f32::from_bits(e[j].to_bits() & mask) as f64;
            sums.neg[j] += f32::from_bits(e[j].to_bits() & !mask) as f64;
        }
        r.copy_from_slice(&e);
        half_word.copy_from_slice(&sign_bits(&e).to_le_bytes());
    }
    // The ragged tail, and the zero padding up to the last whole u64 word.
    bits_tail.fill(0);
    for (j, (r, &g)) in eff_tail.iter_mut().zip(vals_tail).enumerate() {
        let e = g + carry.owed(*r);
        *r = e;
        if e > 0.0 {
            sums.pos[j] += e as f64;
            bits_tail[j / 8] |= 1 << (j % 8);
        } else {
            sums.neg[j] += e as f64;
        }
    }
    // Counted from the 1/32-sized output instead of inside the loop above.
    sums.pos_cnt = bits.iter().map(|b| b.count_ones() as usize).sum();
    sums
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn encode_avx2(eff: &mut [f32], carry: Scales, vals: &[f32], bits: &mut [u8]) -> GroupSums {
    encode_body(eff, carry, vals, bits, |e| sign_bits_avx2(e))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn encode_avx512(eff: &mut [f32], carry: Scales, vals: &[f32], bits: &mut [u8]) -> GroupSums {
    encode_body(eff, carry, vals, bits, |e| sign_bits_avx512(e))
}

/// A borrowed, length-checked view of a 1-bit payload.
#[derive(Clone, Copy, Debug)]
pub struct PackedSigns<'a> {
    rows: usize,
    /// `rows · cols` of the header.
    pub elems: usize,
    scales: Scales,
    bits: &'a [u8],
}

impl<'a> PackedSigns<'a> {
    /// `None` if the buffer is shorter than its header claims or declares a
    /// zero dimension. Never allocates.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let word = |at: usize| [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]];
        if buf.len() < HEADER_BYTES {
            return None;
        }
        let rows = u32::from_le_bytes(word(0)) as usize;
        let elems = rows.checked_mul(u32::from_le_bytes(word(4)) as usize)?;
        let bits = buf[HEADER_BYTES..].get(..elems.div_ceil(64).checked_mul(8)?)?;
        (elems > 0).then_some(Self {
            rows,
            elems,
            scales: Scales {
                pos: f32::from_le_bytes(word(8)),
                neg: f32::from_le_bytes(word(12)),
            },
            bits,
        })
    }

    /// Calls `f(slot, decoded)` for elements `start..start + out.len()` in
    /// order, eight signs per payload byte. Panics unless `start` is a
    /// multiple of 8 and the range lies inside the payload.
    pub fn apply(&self, start: usize, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        self.apply_on(Tier::widest(), start, out, f)
    }

    /// [`Self::apply`] through one named compiled copy.
    pub fn apply_on(&self, tier: Tier, start: usize, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        assert!(
            start.is_multiple_of(8) && start + out.len() <= self.elems,
            "1-bit range {start}+{} of {} elements",
            out.len(),
            self.elems
        );
        let bits = &self.bits[start / 8..];
        match tier.isa() {
            Isa::Baseline => apply_body(bits, self.scales, out, select, f),
            // SAFETY: `tier` holds `Isa::Avx2` only if `avx2` was detected.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { apply_avx2(bits, self.scales, out, f) },
            // SAFETY: `tier` holds `Isa::Avx512` only if `avx512f` was detected.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { apply_avx512(bits, self.scales, out, f) },
        }
    }
}

/// The decode pass: one sign half-word per `SUM_LANES` outputs; `select` is
/// [`select`] or a tier's spelling of it.
#[inline(always)]
fn apply_body(
    bits: &[u8],
    scales: Scales,
    out: &mut [f32],
    select: impl Fn(u16, Scales) -> Step,
    f: impl Fn(&mut f32, f32),
) {
    let mut steps = out.chunks_exact_mut(SUM_LANES);
    let (bits_full, bits_tail) = bits.split_at(steps.len() * (SUM_LANES / 8));
    for (o, half_word) in (&mut steps).zip(bits_full.chunks_exact(SUM_LANES / 8)) {
        let decoded = select(u16::from_le_bytes([half_word[0], half_word[1]]), scales);
        for (o, v) in o.iter_mut().zip(decoded) {
            f(o, v);
        }
    }
    for (j, o) in steps.into_remainder().iter_mut().enumerate() {
        let up = bits_tail[j / 8] & (1 << (j % 8)) != 0;
        f(o, if up { scales.pos } else { scales.neg });
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn apply_avx2(bits: &[u8], scales: Scales, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
    apply_body(
        bits,
        scales,
        out,
        |signs, scales| select_avx2(signs, scales),
        f,
    )
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn apply_avx512(bits: &[u8], scales: Scales, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
    apply_body(
        bits,
        scales,
        out,
        |signs, scales| select_avx512(signs, scales),
        f,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_grad(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        crate::init::gaussian(&mut m, 0.0, 1.0, &mut StdRng::seed_from_u64(seed));
        m
    }

    #[test]
    fn decode_uses_group_means() {
        let g = Matrix::from_vec(1, 4, vec![1.0, 3.0, -2.0, -4.0]);
        let mut q = OneBitQuantizer::new(1, 4);
        let enc = q.quantize(&g);
        let dec = enc.dequantize();
        assert_eq!(dec.as_slice(), &[2.0, 2.0, -3.0, -3.0]);
    }

    #[test]
    fn residual_carries_exact_error() {
        let g = random_grad(8, 8, 7);
        let mut q = OneBitQuantizer::new(8, 8);
        let enc = q.quantize(&g);
        let dec = enc.dequantize();
        // residual == g - dec exactly.
        let mut expect = g.clone();
        expect.sub_assign(&dec);
        assert!(q.residual().max_abs_diff(&expect) == 0.0);
    }

    #[test]
    fn repeated_quantization_transmits_mass_eventually() {
        // A constant gradient fed repeatedly: the decoded sum should approach
        // the true cumulative gradient because the residual is fed back.
        let g = Matrix::filled(4, 4, 0.1);
        let mut q = OneBitQuantizer::new(4, 4);
        let mut decoded_sum = Matrix::zeros(4, 4);
        let steps = 50;
        for _ in 0..steps {
            decoded_sum.add_assign(&q.quantize(&g).dequantize());
        }
        let true_sum = 0.1 * steps as f32;
        for &v in decoded_sum.as_slice() {
            assert!(
                (v - true_sum).abs() <= 0.2,
                "decoded cumulative {v} drifted from {true_sum}"
            );
        }
    }

    #[test]
    fn wire_bytes_is_roughly_32x_smaller() {
        let enc = OneBitQuantizer::new(256, 256).quantize(&random_grad(256, 256, 1));
        let dense_bytes = 256 * 256 * 4;
        assert!(enc.wire_bytes() < dense_bytes / 30);
        assert!(enc.wire_bytes() >= 256 * 256 / 8);
    }

    #[test]
    fn all_zero_gradient_is_stable() {
        let g = Matrix::zeros(3, 3);
        let mut q = OneBitQuantizer::new(3, 3);
        let dec = q.quantize(&g).dequantize();
        assert_eq!(dec.max_abs(), 0.0);
        assert_eq!(q.residual().max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_panics() {
        let mut q = OneBitQuantizer::new(2, 2);
        let _ = q.quantize(&Matrix::zeros(3, 3));
    }

    #[test]
    fn wire_codec_roundtrips() {
        let g = random_grad(13, 9, 42);
        let enc = OneBitQuantizer::new(13, 9).quantize(&g);
        let bytes = enc.to_bytes();
        assert_eq!(bytes.len(), enc.wire_bytes());
        let back = QuantizedGrad::from_bytes(&bytes).unwrap();
        assert_eq!(back, enc);
        assert_eq!(back.dequantize(), enc.dequantize());
    }

    #[test]
    fn wire_codec_rejects_truncation() {
        let enc = OneBitQuantizer::new(4, 4).quantize(&random_grad(4, 4, 1));
        let bytes = enc.to_bytes();
        assert!(QuantizedGrad::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(QuantizedGrad::from_bytes(&bytes[..8]).is_none());
    }

    #[test]
    fn bit_packing_roundtrip_signs() {
        let g = Matrix::from_vec(
            1,
            70,
            (0..70)
                .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let mut q = OneBitQuantizer::new(1, 70);
        let dec = q.quantize(&g).dequantize();
        for (i, &v) in dec.as_slice().iter().enumerate() {
            if i % 3 == 0 {
                assert!(v > 0.0, "element {i} lost its sign");
            } else {
                assert!(v < 0.0, "element {i} lost its sign");
            }
        }
    }
}
