//! The sequential network container and the top-down backward traversal that
//! wait-free backpropagation hooks into.

use crate::layer::{Layer, TensorShape};
use crate::model::Finished;
use poseidon_tensor::Matrix;

/// A sequential stack of layers (the paper's chain-like NN).
///
/// The central piece of the engine contract is [`Network::backward_with`]: it
/// runs the backward pass from the top layer down and invokes a callback the
/// instant each layer's parameter gradients are complete — before the layers
/// below have even started their backward computation. Poseidon's client
/// library schedules each layer's `Send` from that callback (Algorithm 2).
pub struct Network {
    input_shape: TensorShape,
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network expecting inputs of `input_shape`.
    pub fn new(input_shape: TensorShape) -> Self {
        Self {
            input_shape,
            layers: Vec::new(),
        }
    }

    /// Appends a layer. Layers must be pushed bottom-up.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Builder-style [`Self::push`].
    pub fn with(mut self, layer: Box<dyn Layer>) -> Self {
        self.push(layer);
        self
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The expected input shape.
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// Immutable access to layer `l` (0 = bottom).
    pub fn layer(&self, l: usize) -> &dyn Layer {
        self.layers[l].as_ref()
    }

    /// Mutable access to layer `l`.
    pub fn layer_mut(&mut self, l: usize) -> &mut dyn Layer {
        self.layers[l].as_mut()
    }

    /// Indices of the layers that own parameters, bottom-up.
    pub fn trainable_layers(&self) -> Vec<usize> {
        (0..self.layers.len())
            .filter(|&l| self.layers[l].params().is_some())
            .collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .filter_map(|l| l.params())
            .map(|p| p.num_params())
            .sum()
    }

    /// Feed-forward pass over a batch; returns the top-layer activations.
    ///
    /// # Panics
    ///
    /// Panics if `input` width does not match the declared input shape.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.input_shape.len(),
            "input width {} != declared input shape {}",
            input.cols(),
            self.input_shape
        );
        // The bottom layer reads the caller's batch in place.
        let mut act: Option<Matrix> = None;
        for (l, layer) in self.layers.iter_mut().enumerate() {
            crate::probe::emit(crate::probe::ProbeEvent::ForwardBegin { layer: l });
            act = Some(layer.forward(act.as_ref().unwrap_or(input)));
            crate::probe::emit(crate::probe::ProbeEvent::ForwardEnd { layer: l });
        }
        act.unwrap_or_else(|| input.clone())
    }

    /// Backward pass without a gradient callback.
    pub fn backward(&mut self, grad_top: &Matrix) {
        self.backward_with(grad_top, |_, _, _| {});
    }

    /// Backward pass from the top layer down.
    ///
    /// After each layer finishes computing its gradients, `on_layer_done(l,
    /// layer, finished)` fires with the layer index and a mutable reference —
    /// this is the point at which that layer's gradients (and sufficient
    /// factors) are final, and where WFBP triggers the layer's communication.
    /// Layers below `l` have not yet run, mirroring `bᵢ(i < l)` still being
    /// pending in the paper's schedule; the layers above `l` are done with
    /// and lent out through `finished`, so whatever came back for them in
    /// the meantime can be applied right here.
    pub fn backward_with(
        &mut self,
        grad_top: &Matrix,
        mut on_layer_done: impl FnMut(usize, &mut dyn Layer, &mut Finished<'_>),
    ) {
        // The top layer reads the caller's gradient in place.
        let mut grad: Option<Matrix> = None;
        for l in (0..self.layers.len()).rev() {
            let (lower, upper) = self.layers.split_at_mut(l + 1);
            let layer = lower[l].as_mut();
            crate::probe::emit(crate::probe::ProbeEvent::BackwardBegin { layer: l });
            grad = Some(layer.backward(grad.as_ref().unwrap_or(grad_top)));
            crate::probe::emit(crate::probe::ProbeEvent::BackwardEnd { layer: l });
            on_layer_done(l, layer, &mut Finished::chain(l + 1, upper));
        }
    }

    /// Applies `params += alpha * own_grads` on every trainable layer
    /// (single-node SGD; the distributed runtimes update via syncers instead).
    pub fn apply_own_grads(&mut self, alpha: f32) {
        for layer in &mut self.layers {
            if let Some(p) = layer.params_mut() {
                p.apply_own_grads(alpha);
            }
        }
    }

    /// Zeroes all parameter gradients.
    pub fn clear_grads(&mut self) {
        for layer in &mut self.layers {
            if let Some(p) = layer.params_mut() {
                p.clear_grads();
            }
        }
    }

    /// Maximum absolute parameter difference to `other` (architecture must match).
    pub fn max_param_diff(&self, other: &Network) -> f32 {
        assert_eq!(
            self.num_layers(),
            other.num_layers(),
            "layer count mismatch"
        );
        let mut max = 0.0f32;
        for l in 0..self.layers.len() {
            if let (Some(a), Some(b)) = (self.layers[l].params(), other.layers[l].params()) {
                max = max.max(a.weights.max_abs_diff(&b.weights));
                max = max.max(a.bias.max_abs_diff(&b.bias));
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{FullyConnected, ReLU};
    use crate::loss::SoftmaxCrossEntropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(TensorShape::flat(4))
            .with(Box::new(FullyConnected::new("fc1", 4, 8, &mut rng)))
            .with(Box::new(ReLU::new("relu1", TensorShape::flat(8))))
            .with(Box::new(FullyConnected::new("fc2", 8, 3, &mut rng)))
    }

    #[test]
    fn forward_produces_class_logits() {
        let mut net = tiny_net(1);
        let x = Matrix::filled(5, 4, 0.5);
        let y = net.forward(&x);
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(net.num_layers(), 3);
        assert_eq!(net.trainable_layers(), vec![0, 2]);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn backward_callback_fires_top_down() {
        let mut net = tiny_net(2);
        let x = Matrix::filled(2, 4, 0.1);
        let y = net.forward(&x);
        let out = SoftmaxCrossEntropy.evaluate(&y, &[0, 1]);
        let mut order = Vec::new();
        net.backward_with(&out.grad, |l, _, _| order.push(l));
        assert_eq!(order, vec![2, 1, 0], "callback order must be top-down");
    }

    #[test]
    fn gradients_available_inside_callback() {
        let mut net = tiny_net(3);
        let x = Matrix::filled(2, 4, 0.2);
        let y = net.forward(&x);
        let out = SoftmaxCrossEntropy.evaluate(&y, &[1, 2]);
        net.backward_with(&out.grad, |_, layer, _| {
            if let Some(p) = layer.params() {
                assert!(
                    p.grad_weights.norm() > 0.0,
                    "{}: gradient must be complete when the callback fires",
                    layer.name()
                );
            }
        });
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = tiny_net(4);
        let x = Matrix::from_vec(
            3,
            4,
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        );
        let labels = [0usize, 1, 2];
        let head = SoftmaxCrossEntropy;
        let first = head.evaluate(&net.forward(&x), &labels).loss;
        for _ in 0..60 {
            let out = head.evaluate(&net.forward(&x), &labels);
            net.backward(&out.grad);
            net.apply_own_grads(-0.5);
        }
        let last = head.evaluate(&net.forward(&x), &labels).loss;
        assert!(
            last < first * 0.3,
            "loss {first} -> {last} should drop sharply"
        );
    }

    #[test]
    fn clear_grads_zeroes_all() {
        let mut net = tiny_net(7);
        let x = Matrix::filled(1, 4, 1.0);
        let y = net.forward(&x);
        let out = SoftmaxCrossEntropy.evaluate(&y, &[0]);
        net.backward(&out.grad);
        net.clear_grads();
        for &l in &net.trainable_layers() {
            assert_eq!(net.layer(l).params().unwrap().grad_weights.max_abs(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn wrong_input_width_panics() {
        let mut net = tiny_net(8);
        net.forward(&Matrix::zeros(1, 5));
    }
}
