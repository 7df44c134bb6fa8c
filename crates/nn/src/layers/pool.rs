//! Max pooling.

use crate::layer::{Layer, LayerKind, TensorShape};
use crate::layers::conv::conv_out_dim;
use poseidon_tensor::Matrix;

/// 2-D max pooling with a square window.
///
/// Stores the argmax index of every output cell during `forward` and routes
/// the gradient back through it in `backward`. Every window is scanned from
/// its own first cell in row-major order, and a cell replaces the best so
/// far only if it is strictly greater: ties keep the first cell, and a
/// window of NaNs or −∞ emits that value and routes its gradient to itself.
pub struct MaxPool2d {
    name: String,
    in_shape: TensorShape,
    out_shape: TensorShape,
    k: usize,
    stride: usize,
    /// Sample-local input index chosen for each (sample-major) output cell,
    /// kept across steps so no pass allocates it again.
    argmax: Vec<usize>,
    batch: usize,
}

/// Pools one sample into its output cells and their argmax indices.
type PoolBody = fn(&MaxPool2d, &[f32], &mut [f32], &mut [usize]);

impl MaxPool2d {
    /// Creates a pooling layer with a `k×k` window and the given stride.
    ///
    /// # Panics
    ///
    /// Panics if the output would be empty.
    pub fn new(name: impl Into<String>, in_shape: TensorShape, k: usize, stride: usize) -> Self {
        let ho = conv_out_dim(in_shape.h, k, stride, 0);
        let wo = conv_out_dim(in_shape.w, k, stride, 0);
        assert!(ho > 0 && wo > 0, "pooling output is empty");
        Self {
            name: name.into(),
            in_shape,
            out_shape: TensorShape::new(in_shape.c, ho, wo),
            k,
            stride,
            argmax: Vec::new(),
            batch: 0,
        }
    }

    /// The body that pools one sample: [`Self::pool_tiled`] for the 2×2/2
    /// windows every network in this repository uses, [`Self::pool_scan`]
    /// otherwise.
    fn body(&self) -> PoolBody {
        match (self.k, self.stride) {
            (2, 2) => Self::pool_tiled::<2>,
            _ => Self::pool_scan,
        }
    }

    /// Pools one sample window by window. The output size rounds down, so
    /// every window lies inside the input and needs no bounds check.
    fn pool_scan(&self, sample: &[f32], out: &mut [f32], argmax: &mut [usize]) {
        let TensorShape { c, h, w } = self.in_shape;
        let (ho, wo, k, s) = (self.out_shape.h, self.out_shape.w, self.k, self.stride);
        let out_rows = out.chunks_exact_mut(wo).zip(argmax.chunks_exact_mut(wo));
        let starts = (0..c).flat_map(|ch| (0..ho).map(move |oy| ch * h * w + s * oy * w));
        for ((out, argmax), at) in out_rows.zip(starts) {
            for (ox, (o, best_idx)) in out.iter_mut().zip(argmax).enumerate() {
                let cell = at + s * ox;
                let (mut best, mut idx) = (sample[cell], cell);
                for row in (cell..).step_by(w).take(k) {
                    for (kx, &v) in sample[row..row + k].iter().enumerate() {
                        let up = v > best;
                        best = if up { v } else { best };
                        idx = if up { row + kx } else { idx };
                    }
                }
                *o = best;
                *best_idx = idx;
            }
        }
    }

    /// Pools one sample whose windows tile it (`k == stride == K`): an
    /// output row is one pass over its `K` input rows, and a window's cells
    /// meet the best so far in the scan's row-major order. With `K` fixed
    /// the window unrolls: on `mini_vgg`'s pool1 (x86-64, one core) this
    /// body runs about 2.8× faster than the scan.
    fn pool_tiled<const K: usize>(&self, sample: &[f32], out: &mut [f32], argmax: &mut [usize]) {
        let TensorShape { c, h, w } = self.in_shape;
        let (ho, wo) = (self.out_shape.h, self.out_shape.w);
        let out_rows = out.chunks_exact_mut(wo).zip(argmax.chunks_exact_mut(wo));
        // Output row `(ch, oy)` reads input rows `K·oy..K·oy + K` of channel
        // `ch`; rows and columns past the last whole window are never read.
        let starts = (0..c).flat_map(|ch| (0..ho).map(move |oy| ch * h * w + K * oy * w));
        for ((out, argmax), at) in out_rows.zip(starts) {
            let rows: [&[[f32; K]]; K] =
                std::array::from_fn(|ky| sample[at + ky * w..][..K * wo].as_chunks().0);
            for (ox, (o, best_idx)) in out.iter_mut().zip(argmax).enumerate() {
                let cell = at + K * ox;
                let (mut best, mut idx) = (rows[0][ox][0], cell);
                for (ky, row) in rows.iter().enumerate() {
                    for (kx, &v) in row[ox].iter().enumerate() {
                        let up = v > best;
                        best = if up { v } else { best };
                        idx = if up { cell + ky * w + kx } else { idx };
                    }
                }
                *o = best;
                *best_idx = idx;
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Stateless
    }

    fn output_shape(&self) -> TensorShape {
        self.out_shape
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_shape.len(),
            "{}: bad input size",
            self.name
        );
        let (in_len, out_len) = (self.in_shape.len(), self.out_shape.len());
        let batch = input.rows();
        let mut out = Matrix::zeros(batch, out_len);
        let mut argmax = std::mem::take(&mut self.argmax);
        argmax.resize(batch * out_len, 0);
        let pool = self.body();
        let samples = input.as_slice().chunks_exact(in_len);
        let outs = out.as_mut_slice().chunks_exact_mut(out_len);
        for ((sample, o), at) in samples.zip(outs).zip(argmax.chunks_exact_mut(out_len)) {
            pool(self, sample, o, at);
        }
        self.argmax = argmax;
        self.batch = batch;
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert_eq!(grad_out.rows(), self.batch, "batch size mismatch");
        assert_eq!(grad_out.cols(), self.out_shape.len(), "grad width mismatch");
        let (in_len, out_len) = (self.in_shape.len(), self.out_shape.len());
        let mut grad_in = Matrix::zeros(self.batch, in_len);
        let grads = grad_in.as_mut_slice().chunks_exact_mut(in_len);
        let tops = grad_out.as_slice().chunks_exact(out_len);
        for ((gi, top), argmax) in grads.zip(tops).zip(self.argmax.chunks_exact(out_len)) {
            for (&src, &g) in argmax.iter().zip(top) {
                gi[src] += g;
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_window_maximum() {
        let mut p = MaxPool2d::new("pool", TensorShape::new(1, 4, 4), 2, 2);
        let x = Matrix::from_vec(
            1,
            16,
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn gradient_routes_to_argmax_only() {
        let mut p = MaxPool2d::new("pool", TensorShape::new(1, 2, 2), 2, 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 9.0, 3.0, 2.0]);
        p.forward(&x);
        let gin = p.backward(&Matrix::filled(1, 1, 7.0));
        assert_eq!(gin.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn channels_pool_independently() {
        let mut p = MaxPool2d::new("pool", TensorShape::new(2, 2, 2), 2, 2);
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0]);
        let y = p.forward(&x);
        assert_eq!(y.as_slice(), &[4.0, 8.0]);
        assert_eq!(p.output_shape(), TensorShape::new(2, 1, 1));
    }

    #[test]
    fn overlapping_windows_duplicate_gradient() {
        // 3x3 input, 2x2 window, stride 1 → 2x2 output; centre of a uniform
        // input can win multiple windows depending on scan order.
        let mut p = MaxPool2d::new("pool", TensorShape::new(1, 3, 3), 2, 1);
        let x = Matrix::from_vec(1, 9, vec![0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0]);
        p.forward(&x);
        let gin = p.backward(&Matrix::filled(1, 4, 1.0));
        assert_eq!(gin[(0, 4)], 4.0, "centre wins all four windows");
        assert_eq!(gin.sum(), 4.0);
    }

    #[test]
    fn nan_and_neg_infinity_windows_keep_their_value_and_their_gradient() {
        // Channel 0 is finite; channel 1's top-left window is all NaN and
        // its bottom-right window all −∞.
        let mut p = MaxPool2d::new("pool", TensorShape::new(2, 4, 4), 2, 2);
        let mut x = Matrix::filled(1, 32, 1.0);
        for cell in [0, 1, 4, 5] {
            x[(0, 16 + cell)] = f32::NAN;
        }
        for cell in [10, 11, 14, 15] {
            x[(0, 16 + cell)] = f32::NEG_INFINITY;
        }
        let y = p.forward(&x);
        assert!(
            y[(0, 4)].is_nan(),
            "a NaN window yields NaN, got {}",
            y[(0, 4)]
        );
        assert_eq!(y[(0, 7)], f32::NEG_INFINITY);
        let mut gout = Matrix::zeros(1, 8);
        gout[(0, 4)] = 3.0;
        gout[(0, 7)] = 5.0;
        let gin = p.backward(&gout);
        let nan_window: f32 = [0, 1, 4, 5].iter().map(|&c| gin[(0, 16 + c)]).sum();
        assert_eq!(nan_window, 3.0, "gradient stays inside the NaN window");
        assert_eq!(
            gin[(0, 16 + 10)],
            5.0,
            "an all-−∞ window routes to its first cell"
        );
        assert_eq!(
            gin.sum(),
            8.0,
            "nothing leaks to channel 0's top-left pixel"
        );
        assert_eq!(gin[(0, 0)], 0.0);
    }

    #[test]
    fn stateless_kind() {
        let p = MaxPool2d::new("pool", TensorShape::new(1, 4, 4), 2, 2);
        assert_eq!(p.kind(), LayerKind::Stateless);
        assert!(p.params().is_none());
    }

    /// Cells drawn from a palette that makes NaNs, ±∞, signed zeros and
    /// ties common, then channel 0 set to −∞ everywhere and channel 1's
    /// first window to NaN.
    fn awkward_sample(shape: TensorShape, seed: u64) -> Vec<f32> {
        const PALETTE: [f32; 8] = [
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            1.0,
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut x: Vec<f32> = (0..shape.len())
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                PALETTE[(state >> 61) as usize]
            })
            .collect();
        let plane = shape.h * shape.w;
        x[..plane].fill(f32::NEG_INFINITY);
        for cell in [0, 1, shape.w, shape.w + 1] {
            x[plane + cell] = f32::NAN;
        }
        x
    }

    /// `(outputs, argmax)` of one sample through one body.
    fn run(p: &MaxPool2d, x: &[f32], body: PoolBody) -> (Vec<u32>, Vec<usize>) {
        let mut out = vec![0.5; p.out_shape.len()];
        let mut argmax = vec![usize::MAX; p.out_shape.len()];
        body(p, x, &mut out, &mut argmax);
        (out.iter().map(|v| v.to_bits()).collect(), argmax)
    }

    #[test]
    fn tiled_path_matches_the_general_scan() {
        // Odd sides leave a last row or column that no window reads.
        let sides = [(3, 3), (4, 4), (5, 7), (7, 6), (3, 9)];
        for (i, (h, w)) in sides.into_iter().enumerate() {
            let p = MaxPool2d::new("pool", TensorShape::new(3, h, w), 2, 2);
            let x = awkward_sample(p.in_shape, i as u64);
            let tiled = run(&p, &x, MaxPool2d::pool_tiled::<2>);
            assert_eq!(tiled, run(&p, &x, MaxPool2d::pool_scan), "{h}x{w}");
        }
    }

    #[test]
    fn tiled_path_ties_keep_the_first_cell() {
        // Window 0 ties four ones; window 1 ties −0 with +0 (equal under
        // `>`), so its first cell's −0 is the output.
        let p = MaxPool2d::new("pool", TensorShape::new(1, 2, 4), 2, 2);
        let x = [1.0, 1.0, -0.0, 0.0, 1.0, 1.0, 0.0, -0.0];
        let (out, argmax) = run(&p, &x, MaxPool2d::pool_tiled::<2>);
        assert_eq!(out, [1.0f32.to_bits(), (-0.0f32).to_bits()]);
        assert_eq!(argmax, [0, 2]);
    }

    #[test]
    fn a_negative_zero_gradient_reaches_the_input_as_positive_zero() {
        let mut p = MaxPool2d::new("pool", TensorShape::new(2, 5, 7), 2, 2);
        let x = Matrix::from_vec(
            2,
            70,
            awkward_sample(TensorShape::new(4, 5, 7), 3)[..140].to_vec(),
        );
        p.forward(&x);
        let gin = p.backward(&Matrix::filled(2, p.out_shape.len(), -0.0));
        // `0.0 + -0.0` is `+0.0`; no cell, chosen or not, keeps the sign.
        assert!(gin.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn other_windows_take_the_general_scan() {
        // Overlapping, gapped, and tiling at a side with no fixed-size body.
        for (k, stride) in [(2, 1), (3, 2), (1, 2), (2, 3), (1, 1), (3, 3), (4, 4)] {
            let mut p = MaxPool2d::new("pool", TensorShape::new(3, 7, 9), k, stride);
            let x = awkward_sample(p.in_shape, 7);
            let want = run(&p, &x, MaxPool2d::pool_scan);
            let got = p.forward(&Matrix::from_vec(1, x.len(), x));
            let bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!((bits, p.argmax.clone()), want, "k={k} stride={stride}");
        }
    }
}
