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

use crate::Matrix;

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
            pos_scale: packed.pos_scale,
            neg_scale: packed.neg_scale,
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
        // is unbiased within each group.
        let mut pos_sum = 0.0f64;
        let mut pos_cnt = 0usize;
        let mut neg_sum = 0.0f64;
        let mut neg_cnt = 0usize;
        for &v in eff.as_slice() {
            if v > 0.0 {
                pos_sum += v as f64;
                pos_cnt += 1;
            } else {
                neg_sum += v as f64;
                neg_cnt += 1;
            }
        }
        let pos_scale = if pos_cnt > 0 {
            (pos_sum / pos_cnt as f64) as f32
        } else {
            0.0
        };
        let neg_scale = if neg_cnt > 0 {
            (neg_sum / neg_cnt as f64) as f32
        } else {
            0.0
        };

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

/// 1-bit encodes `vals + residual` as a `1 × n` matrix straight into `out`
/// and leaves the new quantization error in `residual` — bit for bit what
/// [`OneBitQuantizer::quantize`] then [`QuantizedGrad::to_bytes`] produce,
/// without their three temporaries. The two scale sums stay sequential f64
/// sums in element order: each block of 32 first masks every value into its
/// group (`+0.0` for the other group, which never changes an IEEE sum that
/// started at `+0.0`), then adds the block in order, so only the adds sit on
/// the dependency chain. Panics if `vals` is empty, or `residual`/`out` have
/// the wrong length.
pub fn encode_in_place(residual: &mut [f32], vals: &[f32], out: &mut [u8]) {
    let n = vals.len();
    assert!(n > 0 && residual.len() == n, "1-bit encode of {n} values");
    assert_eq!(out.len(), wire_bytes(n), "1-bit payload length");
    let cols = u32::try_from(n).expect("1-bit chunk exceeds u32 elements");
    let (hdr, bits) = out.split_at_mut(HEADER_BYTES);
    let (mut pos_sum, mut neg_sum, mut pos_cnt) = (0.0f64, 0.0f64, 0usize);
    let (mut p, mut q) = ([0.0f32; 32], [0.0f32; 32]);
    // `1 << j` per lane as a table: baseline x86-64 has no per-lane variable
    // shift to vectorise the sign packing with.
    let lane_bit: [u32; 32] = std::array::from_fn(|j| 1 << j);
    let blocks = residual.chunks_mut(32).zip(vals.chunks(32));
    for ((r32, g32), word) in blocks.zip(bits.chunks_exact_mut(4)) {
        let mut signs = 0u32;
        let lanes = r32.iter_mut().zip(g32).zip(p.iter_mut().zip(q.iter_mut()));
        for (((r, &g), (p, q)), bit) in lanes.zip(&lane_bit) {
            let eff = g + *r;
            *r = eff;
            let mask = 0u32.wrapping_sub((eff > 0.0) as u32);
            *p = f32::from_bits(eff.to_bits() & mask);
            *q = f32::from_bits(eff.to_bits() & !mask);
            signs |= mask & bit;
        }
        word.copy_from_slice(&signs.to_le_bytes());
        pos_cnt += signs.count_ones() as usize;
        for (&p, &q) in p.iter().zip(&q).take(r32.len()) {
            pos_sum += p as f64;
            neg_sum += q as f64;
        }
    }
    // The last u64 sign word may have an untouched upper half.
    bits[n.div_ceil(32) * 4..].fill(0);
    let mean = |sum: f64, cnt: usize| {
        if cnt > 0 {
            (sum / cnt as f64) as f32
        } else {
            0.0
        }
    };
    let (pos_scale, neg_scale) = (mean(pos_sum, pos_cnt), mean(neg_sum, n - pos_cnt));
    hdr[0..4].copy_from_slice(&1u32.to_le_bytes());
    hdr[4..8].copy_from_slice(&cols.to_le_bytes());
    hdr[8..12].copy_from_slice(&pos_scale.to_le_bytes());
    hdr[12..16].copy_from_slice(&neg_scale.to_le_bytes());
    for r in residual.iter_mut() {
        *r -= if *r > 0.0 { pos_scale } else { neg_scale };
    }
}

/// A borrowed, length-checked view of a 1-bit payload.
#[derive(Clone, Copy, Debug)]
pub struct PackedSigns<'a> {
    rows: usize,
    /// `rows · cols` of the header.
    pub elems: usize,
    pos_scale: f32,
    neg_scale: f32,
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
            pos_scale: f32::from_le_bytes(word(8)),
            neg_scale: f32::from_le_bytes(word(12)),
            bits,
        })
    }

    /// Calls `f(slot, decoded)` for the leading `out.len()` elements in
    /// order, eight signs per payload byte.
    pub fn apply(&self, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        let (pos, neg) = (self.pos_scale, self.neg_scale);
        let pick = |byte: u8, j: usize| if byte & (1 << j) != 0 { pos } else { neg };
        let mut bytes = self.bits.iter();
        let mut full = out.chunks_exact_mut(8);
        for (o8, &byte) in (&mut full).zip(&mut bytes) {
            for (j, o) in o8.iter_mut().enumerate() {
                f(o, pick(byte, j));
            }
        }
        if let Some(&byte) = bytes.next() {
            for (j, o) in full.into_remainder().iter_mut().enumerate() {
                f(o, pick(byte, j));
            }
        }
    }
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
