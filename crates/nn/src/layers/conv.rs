//! 2-D convolution as GEMM over the column matrix Caffe lowers to (that
//! lowering is also why conv gradients are "indecomposable and sparse" from
//! the communication architecture's point of view — they always travel via
//! the parameter server).
//!
//! One sample's column matrix `col` is `D × L`, with `D = c_in·kh·kw` rows
//! and `L = h_out·w_out` columns: row `(ch, ky, kx)` holds, for every output
//! position, the input pixel that kernel tap reads (zero where the tap falls
//! into the padding). It is never written out. Each sample is copied once
//! into the interior of a zero border of `pad` around every channel, and
//! the GEMM's `B` pack gathers `col` (forward: `W·col`, written straight
//! into the sample's output row) or `colᵀ` (`dW_s = G·colᵀ`) from that
//! padded sample ([`kernel::gemm_lowered`]). The input gradient is
//! `dcol = Wᵀ·G` into a `D × L` buffer, then scattered — the lowering's
//! adjoint — onto a zeroed padded plane per channel, one row add per
//! `(ch, ky, kx, oy)` segment at stride 1.
//!
//! Fold orders (the bitwise contract): a forward element sums its taps in
//! ascending `(ch, ky, kx)`, `dW_s` sums over ascending output position, and
//! the scatter of `dcol` walks `(ky, kx)` **descending** so that every input
//! pixel receives its contributions in ascending `(oy, ox)` — for a fixed
//! pixel a larger tap offset means a smaller output coordinate.

use crate::layer::{held, BackwardNeeds, Layer, LayerKind, ParamBlock, TensorShape};
use crate::parallel;
use poseidon_tensor::kernel::{self, Lowered, PaddedSample};
use poseidon_tensor::Matrix;
use rand::Rng;
use std::ops::Range;

/// A 2-D convolution layer with square kernels, zero padding and stride.
///
/// Weights are stored as `c_out × (c_in·kh·kw)`; an input batch is a
/// `K × (c_in·h·w)` matrix and the output a `K × (c_out·h_out·w_out)` matrix,
/// both row-major with channel-major sample layout.
pub struct Conv2d {
    name: String,
    in_shape: TensorShape,
    out_shape: TensorShape,
    c_out: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    params: ParamBlock,
    cached_input: Option<Matrix>,
    /// One scratch set per compute thread, kept across steps so no pass
    /// allocates (and page-faults) it again.
    scratch: Vec<Scratch>,
    /// Per-sample `dW` and `db` partials, kept across steps likewise.
    grad_parts: Vec<(Matrix, Matrix)>,
    /// Only `input_grad` matters here: the weight gradient is the layer's
    /// whole update.
    needs: BackwardNeeds,
}

/// What one compute thread reuses from sample to sample.
#[derive(Default)]
struct Scratch {
    /// The sample inside a zero border of `pad` around every channel (see
    /// [`Conv2d::pad_sample`]).
    padded: Vec<f32>,
    /// The `D × L` input-column gradient `dcol`; empty where no input
    /// gradient is taken.
    dcol: Vec<f32>,
    /// One input channel's gradient inside a border of `pad` (see
    /// [`Conv2d::scatter`]).
    plane: Vec<f32>,
}

/// What one compute thread owns during a backward pass: its rows of the
/// input gradient (none when that is not needed), its samples' gradient
/// partials and its scratch.
type BackwardPart<'a> = (&'a mut [f32], &'a mut [(Matrix, Matrix)], &'a mut Scratch);

impl Conv2d {
    /// Creates a convolution over `in_shape` with `c_out` square `k×k`
    /// filters, the given stride and symmetric zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces an empty output.
    pub fn new(
        name: impl Into<String>,
        in_shape: TensorShape,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(stride >= 1, "stride must be >= 1");
        let h_out = conv_out_dim(in_shape.h, k, stride, pad);
        let w_out = conv_out_dim(in_shape.w, k, stride, pad);
        assert!(h_out > 0 && w_out > 0, "convolution output is empty");
        let fan_in = in_shape.c * k * k;
        let mut params = ParamBlock::new(c_out, fan_in);
        poseidon_tensor::init::xavier(&mut params.weights, fan_in, c_out * k * k, rng);
        Self {
            name: name.into(),
            in_shape,
            out_shape: TensorShape::new(c_out, h_out, w_out),
            c_out,
            kh: k,
            kw: k,
            stride,
            pad,
            params,
            cached_input: None,
            scratch: Vec::new(),
            grad_parts: Vec::new(),
            needs: BackwardNeeds::ALL,
        }
    }

    /// The input shape this layer expects.
    pub fn input_shape(&self) -> TensorShape {
        self.in_shape
    }

    /// Takes the scratch sets out of the layer, at least `threads` of them,
    /// each sized for this layer, with room for `dcol` when `input_grad`.
    fn take_scratch(&mut self, threads: usize, input_grad: bool) -> Vec<Scratch> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize_with(scratch.len().max(threads), Scratch::default);
        let (d, l) = self.col_shape();
        let (hp, wp) = self.plane_shape();
        for part in &mut scratch {
            part.padded.resize(self.in_shape.c * hp * wp, 0.0);
            if input_grad {
                part.dcol.resize(d * l, 0.0);
                part.plane.resize(hp * wp, 0.0);
            }
        }
        scratch
    }

    /// `(D, L)`: rows and columns of the column matrix.
    fn col_shape(&self) -> (usize, usize) {
        (
            self.in_shape.c * self.kh * self.kw,
            self.out_shape.h * self.out_shape.w,
        )
    }

    /// Side of one input channel inside its zero border:
    /// `(h + 2·pad, w + 2·pad)`.
    fn plane_shape(&self) -> (usize, usize) {
        let TensorShape { h, w, .. } = self.in_shape;
        (h + 2 * self.pad, w + 2 * self.pad)
    }

    /// Copies one sample into the interior of `padded` (`c_in` planes of
    /// [`Self::plane_shape`]) and hands it to the kernel as the operand
    /// `col` is gathered from. Nothing else writes `padded`, and this writes
    /// only its interior, so the border keeps the zeros it was allocated
    /// with: padding taps read `+0.0`.
    fn pad_sample<'a>(&self, sample: &[f32], padded: &'a mut [f32]) -> PaddedSample<'a> {
        let TensorShape { c, h, w } = self.in_shape;
        let ((hp, wp), pad) = (self.plane_shape(), self.pad);
        for (plane, chan) in padded
            .chunks_exact_mut(hp * wp)
            .zip(sample.chunks_exact(h * w))
        {
            let interior = plane[pad * wp..].chunks_exact_mut(wp);
            for (dst, src) in interior.zip(chan.chunks_exact(w)) {
                copy_row(&mut dst[pad..pad + w], src);
            }
        }
        PaddedSample::new(padded, c, (hp, wp), (self.kh, self.kw), self.stride)
    }

    /// Writes the input-sample gradient `out` from `dcol` (`D × L`): the
    /// adjoint of the lowering. Per channel, every tap row of `dcol` is
    /// added onto a zeroed `plane` where that tap reads the padded sample,
    /// taps descending (see the module doc), and the plane's interior is
    /// copied out; what the border collected belongs to padding and is
    /// dropped.
    fn scatter(&self, dcol: &[f32], plane: &mut [f32], out: &mut [f32]) {
        let TensorShape { h, w, .. } = self.in_shape;
        let (l, wo) = (self.col_shape().1, self.out_shape.w);
        let (wp, pad, stride) = (self.plane_shape().1, self.pad, self.stride);
        let chans = out.chunks_exact_mut(h * w);
        for (chan, taps) in chans.zip(dcol.chunks_exact(self.kh * self.kw * l)) {
            plane.fill(0.0);
            for (t, tap) in taps.chunks_exact(l).enumerate().rev() {
                let (ky, kx) = (t / self.kw, t % self.kw);
                let rows = plane[ky * wp + kx..].chunks_mut(wp).step_by(stride);
                for (row, seg) in rows.zip(tap.chunks_exact(wo)) {
                    if stride == 1 {
                        add_row(&mut row[..wo], seg);
                    } else {
                        for (o, &g) in row.iter_mut().step_by(stride).zip(seg) {
                            *o += g;
                        }
                    }
                }
            }
            let interior = plane[pad * wp..].chunks_exact(wp);
            for (dst, src) in chan.chunks_exact_mut(w).zip(interior) {
                dst.copy_from_slice(&src[pad..pad + w]);
            }
        }
    }

    /// Backward pass over one contiguous sample range: fills the matching
    /// rows of `grad_in` (when it has any) and one weight/bias gradient
    /// partial per sample.
    fn backward_chunk(
        &self,
        input: &Matrix,
        grad_out: &Matrix,
        range: Range<usize>,
        (grad_in, parts, scratch): BackwardPart<'_>,
    ) {
        let (d, l) = self.col_shape();
        let in_len = self.in_shape.len();
        let weights = self.params.weights.as_slice();
        let Scratch {
            padded,
            dcol,
            plane,
        } = scratch;
        let mut grad_in = grad_in.chunks_exact_mut(in_len);
        for (s, (gw, gb)) in range.zip(parts) {
            let sample = self.pad_sample(input.row(s), padded);
            // This sample's output gradient is already `c_out × L`.
            let g = grad_out.row(s);
            // dW_s = G · colᵀ  (c_out × D).
            kernel::gemm_lowered(
                self.c_out,
                g,
                l,
                1,
                Lowered::ColT(sample),
                gw.as_mut_slice(),
            );
            // db_s = row sums of G.
            for (b, grow) in gb.as_mut_slice().iter_mut().zip(g.chunks_exact(l)) {
                *b = grow.iter().sum::<f32>();
            }
            // dcol = Wᵀ · G  (D × L), scattered back to the input — unless
            // nobody reads that gradient and no rows of it were handed out.
            if let Some(gi) = grad_in.next() {
                kernel::gemm(d, l, self.c_out, weights, 1, d, g, l, 1, dcol);
                self.scatter(dcol, plane, gi);
            }
        }
    }
}

/// Output spatial size of a convolution/pooling dimension (0 if the kernel
/// does not fit).
pub(crate) fn conv_out_dim(input: usize, k: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    if padded < k {
        return 0;
    }
    (padded - k) / stride + 1
}

/// `dst = src`, eight elements per fixed-width step: an input row is `w`
/// long, too short for a `memcpy` call to pay off.
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
    let (src8, src_tail) = src.as_chunks::<8>();
    for (d, s) in dst8.iter_mut().zip(src8) {
        *d = *s;
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d = *s;
    }
}

/// `dst += src` element-wise, eight elements per fixed-width step. Each
/// step reads both operands whole before it stores, which is what lets the
/// compiler vectorise it without proving that the rows do not overlap.
fn add_row(dst: &mut [f32], src: &[f32]) {
    let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
    let (src8, src_tail) = src.as_chunks::<8>();
    for (d, s) in dst8.iter_mut().zip(src8) {
        *d = std::array::from_fn(|i| d[i] + s[i]);
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d += s;
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Convolutional
    }

    fn output_shape(&self) -> TensorShape {
        self.out_shape
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_shape.len(),
            "{}: input length {} != shape {}",
            self.name,
            input.cols(),
            self.in_shape
        );
        let k = input.rows();
        let (d, l) = self.col_shape();
        let c_out = self.c_out;
        let mut out = Matrix::zeros(k, c_out * l);
        let ranges = parallel::chunk_ranges(k, parallel::compute_threads());
        let mut scratch = self.take_scratch(ranges.len(), false);
        let rows = parallel::split_by_ranges(out.as_mut_slice(), &ranges, c_out * l);
        let chunks = ranges
            .into_iter()
            .zip(rows.into_iter().zip(&mut scratch))
            .collect();
        let this = &*self;
        parallel::par_chunks(chunks, |range, (rows, part): (&mut [f32], &mut Scratch)| {
            let weights = this.params.weights.as_slice();
            for (s, orow) in range.zip(rows.chunks_exact_mut(c_out * l)) {
                let sample = this.pad_sample(input.row(s), &mut part.padded);
                // (c_out × D) · (D × L), written straight into the output
                // row; then the bias, in place.
                kernel::gemm_lowered(c_out, weights, d, 1, Lowered::Col(sample), orow);
                for (ochan, &b) in orow.chunks_exact_mut(l).zip(this.params.bias.row(0)) {
                    for o in ochan {
                        *o += b;
                    }
                }
            }
        });
        self.scratch = scratch;
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .take()
            .expect("backward called before forward");
        let k = input.rows();
        let (d, l) = self.col_shape();
        assert_eq!(grad_out.rows(), k, "batch size mismatch");
        assert_eq!(grad_out.cols(), self.c_out * l, "grad width mismatch");

        let in_len = self.in_shape.len();
        let mut grad_in = if self.needs.input_grad {
            Matrix::zeros(k, in_len)
        } else {
            Matrix::zeros(1, 1)
        };
        // One weight/bias gradient partial per sample; reduced below in a
        // fixed tree over the sample index, so the result is independent of
        // how samples were spread across threads.
        let mut parts = std::mem::take(&mut self.grad_parts);
        let c_out = self.c_out;
        parts.resize_with(parts.len().max(k), || {
            (Matrix::zeros(c_out, d), Matrix::zeros(1, c_out))
        });
        let ranges = parallel::chunk_ranges(k, parallel::compute_threads());
        let mut scratch = self.take_scratch(ranges.len(), self.needs.input_grad);
        // Without an input gradient every thread gets an empty slice of it.
        let gi_width = if self.needs.input_grad { in_len } else { 0 };
        let gi = parallel::split_by_ranges(grad_in.as_mut_slice(), &ranges, gi_width);
        let ps = parallel::split_by_ranges(&mut parts, &ranges, 1);
        let chunks: Vec<(Range<usize>, BackwardPart<'_>)> = ranges
            .into_iter()
            .zip(gi.into_iter().zip(ps).zip(&mut scratch))
            .map(|(range, ((gi, ps), part))| (range, (gi, ps, part)))
            .collect();
        let this = &*self;
        parallel::par_chunks(chunks, |range, part| {
            this.backward_chunk(&input, grad_out, range, part)
        });

        parallel::tree_reduce(&mut parts[..k], |a, b| {
            a.0.add_assign(&b.0);
            a.1.add_assign(&b.1);
        });
        // Copied over the held gradients, which a syncer may have lent out
        // and given back since the last step.
        let (gw, gb) = &parts[0];
        let held_gw = held(&mut self.params.grad_weights, c_out, d);
        held_gw.as_mut_slice().copy_from_slice(gw.as_slice());
        let held_gb = held(&mut self.params.grad_bias, 1, c_out);
        held_gb.as_mut_slice().copy_from_slice(gb.as_slice());
        self.grad_parts = parts;
        self.scratch = scratch;
        self.cached_input = Some(input);
        grad_in
    }

    fn set_backward_needs(&mut self, needs: BackwardNeeds) {
        self.needs = needs;
    }

    fn params(&self) -> Option<&ParamBlock> {
        Some(&self.params)
    }

    fn params_mut(&mut self) -> Option<&mut ParamBlock> {
        Some(&mut self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(32, 5, 1, 2), 32);
        assert_eq!(conv_out_dim(32, 3, 2, 1), 16);
        assert_eq!(conv_out_dim(7, 7, 1, 0), 1);
        assert_eq!(conv_out_dim(4, 5, 1, 0), 0, "kernel larger than input");
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1 input channel, 1 output channel, 1x1 kernel with weight 1.
        let mut conv = Conv2d::new("c", TensorShape::new(1, 3, 3), 1, 1, 1, 0, &mut rng());
        conv.params_mut().unwrap().weights = Matrix::filled(1, 1, 1.0);
        conv.params_mut().unwrap().bias = Matrix::zeros(1, 1);
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn hand_computed_3x3_convolution() {
        // 1x3x3 input, one 3x3 filter of all ones, pad 1: centre output is the
        // sum of all 9 inputs.
        let mut conv = Conv2d::new("c", TensorShape::new(1, 3, 3), 1, 3, 1, 1, &mut rng());
        conv.params_mut().unwrap().weights = Matrix::filled(1, 9, 1.0);
        conv.params_mut().unwrap().bias = Matrix::zeros(1, 1);
        let x = Matrix::filled(1, 9, 1.0);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), (1, 9));
        assert_eq!(y[(0, 4)], 9.0, "centre sees the full 3x3 window");
        assert_eq!(y[(0, 0)], 4.0, "corner sees a 2x2 window");
        assert_eq!(y[(0, 1)], 6.0, "edge sees a 2x3 window");
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let mut conv = Conv2d::new("c", TensorShape::new(1, 2, 2), 2, 1, 1, 0, &mut rng());
        conv.params_mut().unwrap().weights = Matrix::zeros(2, 1);
        conv.params_mut().unwrap().bias = Matrix::from_vec(1, 2, vec![1.5, -2.0]);
        let y = conv.forward(&Matrix::zeros(1, 4));
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.0; 4]);
    }

    #[test]
    fn stride_downsamples() {
        let conv = Conv2d::new("c", TensorShape::new(3, 8, 8), 4, 3, 2, 1, &mut rng());
        assert_eq!(conv.output_shape(), TensorShape::new(4, 4, 4));
    }

    #[test]
    fn weight_gradient_matches_numeric_differentiation() {
        let mut conv = Conv2d::new("c", TensorShape::new(2, 4, 4), 3, 3, 1, 1, &mut rng());
        let mut x = Matrix::zeros(2, 32);
        poseidon_tensor::init::gaussian(&mut x, 0.0, 1.0, &mut rng());
        let gout = Matrix::filled(2, 3 * 16, 1.0);
        conv.forward(&x);
        conv.backward(&gout);
        let analytic = conv.params().unwrap().grad_weights.clone();

        let eps = 1e-2f32;
        // Spot-check a handful of weights.
        for &(r, c) in &[(0usize, 0usize), (1, 5), (2, 17), (0, 9)] {
            let orig = conv.params().unwrap().weights[(r, c)];
            conv.params_mut().unwrap().weights[(r, c)] = orig + eps;
            let up = conv.forward(&x).sum();
            conv.params_mut().unwrap().weights[(r, c)] = orig - eps;
            let dn = conv.forward(&x).sum();
            conv.params_mut().unwrap().weights[(r, c)] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (analytic[(r, c)] - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "dW[{r},{c}] analytic {} vs numeric {numeric}",
                analytic[(r, c)]
            );
        }
    }

    #[test]
    fn input_gradient_matches_numeric_differentiation() {
        let mut conv = Conv2d::new("c", TensorShape::new(1, 4, 4), 2, 3, 1, 1, &mut rng());
        let mut x = Matrix::zeros(1, 16);
        poseidon_tensor::init::gaussian(&mut x, 0.0, 1.0, &mut rng());
        conv.forward(&x);
        let gin = conv.backward(&Matrix::filled(1, 2 * 16, 1.0));
        let eps = 1e-2f32;
        for c in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp[(0, c)] += eps;
            let up = conv.forward(&xp).sum();
            let mut xm = x.clone();
            xm[(0, c)] -= eps;
            let dn = conv.forward(&xm).sum();
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (gin[(0, c)] - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "dX[{c}] analytic {} vs numeric {numeric}",
                gin[(0, c)]
            );
        }
    }

    #[test]
    fn conv_has_no_sufficient_factors() {
        let conv = Conv2d::new("c", TensorShape::new(1, 4, 4), 2, 3, 1, 1, &mut rng());
        assert!(conv.sufficient_factors().is_none());
        assert_eq!(conv.kind(), LayerKind::Convolutional);
    }

    #[test]
    fn param_count_formula() {
        let conv = Conv2d::new("c", TensorShape::new(3, 32, 32), 32, 5, 1, 2, &mut rng());
        // 32 filters of 3*5*5 weights + 32 biases = 2432 (CIFAR-quick conv1).
        assert_eq!(conv.params().unwrap().num_params(), 2432);
    }
}
