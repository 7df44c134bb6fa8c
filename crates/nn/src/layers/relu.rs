//! Rectified linear activation.

use crate::layer::{Layer, LayerKind, TensorShape};
use poseidon_tensor::Matrix;

/// Element-wise `max(0, x)`.
pub struct ReLU {
    name: String,
    shape: TensorShape,
    /// Mask of the last forward pass: 1.0 where the input was positive.
    mask: Option<Matrix>,
}

impl ReLU {
    /// Creates a ReLU over activations of the given shape.
    pub fn new(name: impl Into<String>, shape: TensorShape) -> Self {
        Self {
            name: name.into(),
            shape,
            mask: None,
        }
    }
}

impl Layer for ReLU {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Stateless
    }

    fn output_shape(&self) -> TensorShape {
        self.shape
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.shape.len(),
            "{}: bad input size",
            self.name
        );
        // Two branch-free selects, one output each, so both loops vectorise;
        // a clamp-in-place loop compiles to a branch that mispredicts on
        // every other activation.
        let (rows, cols) = input.shape();
        let x = input.as_slice();
        let out = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 });
        let mask = x.iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 });
        let (out, mask) = (out.collect(), mask.collect());
        self.mask = Some(Matrix::from_vec(rows, cols, mask));
        Matrix::from_vec(rows, cols, out)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.shape(), mask.shape(), "grad shape mismatch");
        let mut grad_in = grad_out.clone();
        for (g, &m) in grad_in.as_mut_slice().iter_mut().zip(mask.as_slice()) {
            *g *= m;
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = ReLU::new("relu", TensorShape::flat(4));
        let y = r.forward(&Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = ReLU::new("relu", TensorShape::flat(4));
        r.forward(&Matrix::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]));
        let gin = r.backward(&Matrix::filled(1, 4, 3.0));
        assert_eq!(gin.as_slice(), &[0.0, 0.0, 3.0, 3.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // The subgradient at exactly 0 is taken as 0 (Caffe convention).
        let mut r = ReLU::new("relu", TensorShape::flat(1));
        r.forward(&Matrix::zeros(1, 1));
        let gin = r.backward(&Matrix::filled(1, 1, 5.0));
        assert_eq!(gin[(0, 0)], 0.0);
    }

    #[test]
    fn is_parameter_free() {
        let r = ReLU::new("relu", TensorShape::flat(3));
        assert!(r.params().is_none());
        assert_eq!(r.kind(), LayerKind::Stateless);
        assert_eq!(r.output_shape(), TensorShape::flat(3));
    }
}
