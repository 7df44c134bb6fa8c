//! 2-D convolution lowered to GEMM over a column matrix (the lowering Caffe
//! uses, which is also why conv gradients are "indecomposable and sparse"
//! from the communication architecture's point of view — they always travel
//! via the parameter server).
//!
//! One sample is lowered to `col`, a `D × L` matrix with `D = c_in·kh·kw`
//! rows and `L = h_out·w_out` columns: row `(ch, ky, kx)` holds, for every
//! output position, the input pixel that kernel tap reads (zero where the
//! tap falls into the padding). At stride 1 each `(ch, ky, kx, oy)` segment
//! of a row is one contiguous span of an input row, so the lowering is a
//! `copy_from_slice`/`fill` per segment and its adjoint a vector add. Then
//! forward is `W·col` written straight into the sample's output row,
//! `dW_s = G·colᵀ` and `dcol = Wᵀ·G`, all on the packed GEMM.
//!
//! Fold orders (the bitwise contract): a forward element sums its taps in
//! ascending `(ch, ky, kx)`, `dW_s` sums over ascending output position, and
//! the scatter of `dcol` walks `(ky, kx)` **descending** so that every input
//! pixel receives its contributions in ascending `(oy, ox)` — for a fixed
//! pixel a larger tap offset means a smaller output coordinate.

use crate::layer::{BackwardNeeds, Layer, LayerKind, ParamBlock, TensorShape};
use crate::parallel;
use poseidon_tensor::{kernel, Matrix};
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
    /// One `D × L` column buffer per compute thread, kept across steps so
    /// no pass allocates (and page-faults) it again. It holds `col`, and in
    /// backward, once `dW_s` has consumed that, `dcol`.
    cols: Vec<Vec<f32>>,
    /// Per-sample `dW` and `db` partials, kept across steps likewise.
    grad_parts: Vec<(Matrix, Matrix)>,
    /// Only `input_grad` matters here: the weight gradient is the layer's
    /// whole update.
    needs: BackwardNeeds,
}

/// What one compute thread owns during a backward pass: its rows of the
/// input gradient (none when that is not needed), its samples' gradient
/// partials and its column buffer.
type BackwardPart<'a> = (&'a mut [f32], &'a mut [(Matrix, Matrix)], &'a mut Vec<f32>);

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
            cols: Vec::new(),
            grad_parts: Vec::new(),
            needs: BackwardNeeds::ALL,
        }
    }

    /// The input shape this layer expects.
    pub fn input_shape(&self) -> TensorShape {
        self.in_shape
    }

    /// Takes the column buffers out of the layer, at least `threads` of them.
    fn take_cols(&mut self, threads: usize) -> Vec<Vec<f32>> {
        let mut cols = std::mem::take(&mut self.cols);
        cols.resize_with(cols.len().max(threads), Vec::new);
        cols
    }

    /// `(D, L)`: rows and columns of the column matrix.
    fn col_shape(&self) -> (usize, usize) {
        (
            self.in_shape.c * self.kh * self.kw,
            self.out_shape.h * self.out_shape.w,
        )
    }

    /// The output columns whose tap `kx` reads inside the input row; the
    /// columns before and after it read padding.
    fn ox_range(&self, kx: usize) -> Range<usize> {
        // ix = ox·stride + kx − pad must land in 0..w.
        let hi = (self.in_shape.w + self.pad)
            .checked_sub(kx + 1)
            .map_or(0, |room| (room / self.stride + 1).min(self.out_shape.w));
        let lo = self.pad.saturating_sub(kx).div_ceil(self.stride);
        lo.min(hi)..hi
    }

    /// The input row that tap row `ky` reads for output row `oy`, unless it
    /// is padding.
    fn input_row(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy * self.stride + ky)
            .checked_sub(self.pad)
            .filter(|&iy| iy < self.in_shape.h)
    }

    /// Lowers one sample into `col` (`D × L`). Every element is written —
    /// padding positions get an explicit zero — so the buffer is reused
    /// across samples without clearing.
    fn lower(&self, sample: &[f32], col: &mut [f32]) {
        let TensorShape { c, h, w } = self.in_shape;
        let (ho, wo) = (self.out_shape.h, self.out_shape.w);
        let mut segs = col.chunks_exact_mut(wo);
        for ch in 0..c {
            for ky in 0..self.kh {
                for kx in 0..self.kw {
                    let ox = self.ox_range(kx);
                    for oy in 0..ho {
                        let seg = segs.next().expect("col is D × L");
                        let Some(iy) = self.input_row(oy, ky).filter(|_| !ox.is_empty()) else {
                            seg.fill(0.0);
                            continue;
                        };
                        let ix = ox.start * self.stride + kx - self.pad;
                        let row = &sample[(ch * h + iy) * w..][ix..w];
                        seg[..ox.start].fill(0.0);
                        if self.stride == 1 {
                            seg[ox.clone()].copy_from_slice(&row[..ox.len()]);
                        } else {
                            let taps = row.iter().step_by(self.stride);
                            for (o, &v) in seg[ox.clone()].iter_mut().zip(taps) {
                                *o = v;
                            }
                        }
                        seg[ox.end..].fill(0.0);
                    }
                }
            }
        }
    }

    /// Adds `dcol` (`D × L`) back onto the input-sample gradient `out`: the
    /// adjoint of [`Self::lower`], taps descending (see the module doc).
    fn scatter(&self, dcol: &[f32], out: &mut [f32]) {
        let TensorShape { c, h, w } = self.in_shape;
        let (ho, wo) = (self.out_shape.h, self.out_shape.w);
        for ch in 0..c {
            for ky in (0..self.kh).rev() {
                for kx in (0..self.kw).rev() {
                    let ox = self.ox_range(kx);
                    if ox.is_empty() {
                        continue;
                    }
                    let d = (ch * self.kh + ky) * self.kw + kx;
                    let ix = ox.start * self.stride + kx - self.pad;
                    for oy in 0..ho {
                        let Some(iy) = self.input_row(oy, ky) else {
                            continue;
                        };
                        let seg = &dcol[(d * ho + oy) * wo..][ox.clone()];
                        let row = &mut out[(ch * h + iy) * w..][ix..w];
                        if self.stride == 1 {
                            for (o, &g) in row.iter_mut().zip(seg) {
                                *o += g;
                            }
                        } else {
                            for (o, &g) in row.iter_mut().step_by(self.stride).zip(seg) {
                                *o += g;
                            }
                        }
                    }
                }
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
        (grad_in, parts, col): BackwardPart<'_>,
    ) {
        let (d, l) = self.col_shape();
        let in_len = self.in_shape.len();
        let weights = self.params.weights.as_slice();
        col.resize(d * l, 0.0);
        let mut grad_in = grad_in.chunks_exact_mut(in_len);
        for (s, (gw, gb)) in range.zip(parts) {
            self.lower(input.row(s), col);
            // This sample's output gradient is already `c_out × L`.
            let g = grad_out.row(s);
            // dW_s = G · colᵀ  (c_out × D).
            gw.clear();
            kernel::gemm(self.c_out, d, l, g, l, 1, col, 1, l, gw.as_mut_slice());
            // db_s = row sums of G.
            for (b, grow) in gb.as_mut_slice().iter_mut().zip(g.chunks_exact(l)) {
                *b = grow.iter().sum::<f32>();
            }
            // dcol = Wᵀ · G  (D × L) over the buffer `col` no longer needs,
            // scattered back to the input — unless nobody reads that
            // gradient and no rows of it were handed out.
            if let Some(gi) = grad_in.next() {
                col.fill(0.0);
                kernel::gemm(d, l, self.c_out, weights, 1, d, g, l, 1, col);
                self.scatter(col, gi);
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
        let mut cols = self.take_cols(ranges.len());
        let rows = parallel::split_by_ranges(out.as_mut_slice(), &ranges, c_out * l);
        let chunks = ranges
            .into_iter()
            .zip(rows.into_iter().zip(&mut cols))
            .collect();
        let this = &*self;
        parallel::par_chunks(chunks, |range, (rows, col): (&mut [f32], &mut Vec<f32>)| {
            let weights = this.params.weights.as_slice();
            col.resize(d * l, 0.0);
            for (s, orow) in range.zip(rows.chunks_exact_mut(c_out * l)) {
                this.lower(input.row(s), col);
                // (c_out × D) · (D × L), accumulated onto the zeroed output
                // row; then the bias, in place.
                kernel::gemm(c_out, l, d, weights, d, 1, col, l, 1, orow);
                for (ochan, &b) in orow.chunks_exact_mut(l).zip(this.params.bias.row(0)) {
                    for o in ochan {
                        *o += b;
                    }
                }
            }
        });
        self.cols = cols;
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
        let mut cols = self.take_cols(ranges.len());
        // Without an input gradient every thread gets an empty slice of it.
        let gi_width = if self.needs.input_grad { in_len } else { 0 };
        let gi = parallel::split_by_ranges(grad_in.as_mut_slice(), &ranges, gi_width);
        let ps = parallel::split_by_ranges(&mut parts, &ranges, 1);
        let chunks: Vec<(Range<usize>, BackwardPart<'_>)> = ranges
            .into_iter()
            .zip(gi.into_iter().zip(ps).zip(&mut cols))
            .map(|(range, ((gi, ps), col))| (range, (gi, ps, col)))
            .collect();
        let this = &*self;
        parallel::par_chunks(chunks, |range, part| {
            this.backward_chunk(&input, grad_out, range, part)
        });

        parallel::tree_reduce(&mut parts[..k], |a, b| {
            a.0.add_assign(&b.0);
            a.1.add_assign(&b.1);
        });
        self.params.grad_weights = parts[0].0.clone();
        self.params.grad_bias = parts[0].1.clone();
        self.grad_parts = parts;
        self.cols = cols;
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
