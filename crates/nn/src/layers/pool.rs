//! Max pooling.

use crate::layer::{Layer, LayerKind, TensorShape};
use crate::layers::conv::conv_out_dim;
use poseidon_tensor::Matrix;

/// 2-D max pooling with a square window.
///
/// Stores the argmax index of every output cell during `forward` and routes
/// the gradient back through it in `backward`.
pub struct MaxPool2d {
    name: String,
    in_shape: TensorShape,
    out_shape: TensorShape,
    k: usize,
    stride: usize,
    /// Flat input index chosen for each (sample-major) output cell.
    argmax: Vec<usize>,
    batch: usize,
}

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
        let TensorShape { c, h, w } = self.in_shape;
        let (ho, wo) = (self.out_shape.h, self.out_shape.w);
        let batch = input.rows();
        let mut out = Matrix::zeros(batch, self.out_shape.len());
        self.argmax = vec![0; batch * self.out_shape.len()];
        self.batch = batch;
        for s in 0..batch {
            let sample = input.row(s);
            for ch in 0..c {
                for oy in 0..ho {
                    for ox in 0..wo {
                        // Seeded with the window's own first cell (always
                        // inside the input: there is no padding), not with
                        // −∞ at index 0: a window of NaNs or −∞ then emits
                        // that value and routes its gradient to itself.
                        let mut best_idx = ch * h * w + oy * self.stride * w + ox * self.stride;
                        let mut best = sample[best_idx];
                        for ky in 0..self.k {
                            let iy = oy * self.stride + ky;
                            if iy >= h {
                                continue;
                            }
                            for kx in 0..self.k {
                                let ix = ox * self.stride + kx;
                                if ix >= w {
                                    continue;
                                }
                                let idx = ch * h * w + iy * w + ix;
                                if sample[idx] > best {
                                    best = sample[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let ocell = ch * ho * wo + oy * wo + ox;
                        out[(s, ocell)] = best;
                        self.argmax[s * self.out_shape.len() + ocell] = best_idx;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        assert_eq!(grad_out.rows(), self.batch, "batch size mismatch");
        assert_eq!(grad_out.cols(), self.out_shape.len(), "grad width mismatch");
        let mut grad_in = Matrix::zeros(self.batch, self.in_shape.len());
        for s in 0..self.batch {
            for ocell in 0..self.out_shape.len() {
                let src = self.argmax[s * self.out_shape.len() + ocell];
                grad_in[(s, src)] += grad_out[(s, ocell)];
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
}
