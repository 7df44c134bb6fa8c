//! The layer abstraction: parameter blocks, shapes and the `Layer` trait.

use poseidon_tensor::{Matrix, SfBatch};

/// The spatial shape of one sample's activation tensor, `channels × height × width`.
///
/// Activations for a batch of `K` samples are stored as a `K × (c·h·w)`
/// row-major [`Matrix`]; this struct carries the interpretation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TensorShape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl TensorShape {
    /// Creates a shape.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Self { c, h, w }
    }

    /// A flat feature vector of length `n` (shape `n × 1 × 1`).
    pub fn flat(n: usize) -> Self {
        Self { c: n, h: 1, w: 1 }
    }

    /// Total number of elements per sample.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// `true` iff the shape has zero elements (never for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Coarse layer classification used by the communication-scheme selector.
///
/// The paper's Algorithm 1 distinguishes FC layers (decomposable gradients,
/// SFB eligible) from everything else (indecomposable, always PS).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Fully-connected: gradient is a sum of per-sample rank-1 matrices.
    FullyConnected,
    /// Convolutional: sparse, indecomposable updates.
    Convolutional,
    /// Parameter-free layers (pooling, activation, flatten, ...).
    Stateless,
}

/// The trainable parameters and current gradients of one layer.
///
/// Weights and bias are kept separate so SFB can transmit the weight gradient
/// as factors while the (tiny) bias gradient rides along; both are updated
/// atomically by the syncer's `Move` step.
#[derive(Clone, Debug)]
pub struct ParamBlock {
    /// Weight matrix. For FC layers: `out × in`. For conv layers:
    /// `c_out × (c_in · kh · kw)`.
    pub weights: Matrix,
    /// Bias vector as a `1 × out` matrix.
    pub bias: Matrix,
    /// Accumulated weight gradient (same shape as `weights`).
    pub grad_weights: Matrix,
    /// Accumulated bias gradient (same shape as `bias`).
    pub grad_bias: Matrix,
}

impl ParamBlock {
    /// Creates a zero-initialised block for a `rows × cols` weight matrix with
    /// `rows` biases.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            weights: Matrix::zeros(rows, cols),
            bias: Matrix::zeros(1, rows),
            grad_weights: Matrix::zeros(rows, cols),
            grad_bias: Matrix::zeros(1, rows),
        }
    }

    /// Total number of trainable scalars (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Zeroes both gradients (start of an iteration).
    pub fn clear_grads(&mut self) {
        self.grad_weights.clear();
        self.grad_bias.clear();
    }

    /// Applies `params += alpha * grads` using the *given* gradients, leaving
    /// this block's own gradient buffers untouched. Used when the update comes
    /// from the network (a remote aggregate) rather than local backprop.
    pub fn apply_update(&mut self, grad_w: &Matrix, grad_b: &Matrix, alpha: f32) {
        self.weights.axpy(alpha, grad_w);
        self.bias.axpy(alpha, grad_b);
    }

    /// Applies `params += alpha * own grads` (single-node SGD step).
    pub fn apply_own_grads(&mut self, alpha: f32) {
        // Split borrows: temporarily move gradients out to satisfy aliasing.
        let gw = std::mem::replace(&mut self.grad_weights, Matrix::zeros(1, 1));
        let gb = std::mem::replace(&mut self.grad_bias, Matrix::zeros(1, 1));
        self.weights.axpy(alpha, &gw);
        self.bias.axpy(alpha, &gb);
        self.grad_weights = gw;
        self.grad_bias = gb;
    }

    /// Overwrites the parameters with fresh values (a PS pull).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn set_params(&mut self, weights: &Matrix, bias: &Matrix) {
        assert_eq!(
            self.weights.shape(),
            weights.shape(),
            "weight shape mismatch"
        );
        assert_eq!(self.bias.shape(), bias.shape(), "bias shape mismatch");
        self.weights = weights.clone();
        self.bias = bias.clone();
    }
}

/// Which of a backward pass's products somebody reads.
///
/// Whoever drives the model derives both from what it already knows — the
/// slot's position ([`crate::Model::reads_input`]) and how the layer's
/// update travels — and tells the layer once
/// ([`Layer::set_backward_needs`]); a layer skips the work behind a need
/// that is off. The bias gradient and the sufficient factors are always
/// produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackwardNeeds {
    /// `∂L/∂input` is read. Off for a slot fed by the model input, whose
    /// input gradient nobody consumes; `backward` then returns a 1 × 1
    /// placeholder instead.
    pub input_grad: bool,
    /// The dense weight gradient is read. Off for a layer whose update
    /// travels as sufficient factors; `grad_weights` then keeps whatever it
    /// held.
    pub weight_grad: bool,
}

impl BackwardNeeds {
    /// Everything is read: what every layer assumes until told otherwise.
    pub const ALL: Self = Self {
        input_grad: true,
        weight_grad: true,
    };
}

/// A differentiable layer of a sequential network.
///
/// The contract mirrors Caffe's: `forward` caches whatever `backward` needs;
/// `backward` consumes the gradient w.r.t. the layer output, fills the
/// parameter gradients (if any) and returns the gradient w.r.t. the layer
/// input. Layers are used strictly in forward-then-backward alternation.
pub trait Layer: Send {
    /// Human-readable unique name (used as the syncer key).
    fn name(&self) -> &str;

    /// Classification for the communication-scheme selector.
    fn kind(&self) -> LayerKind;

    /// Output activation shape per sample.
    fn output_shape(&self) -> TensorShape;

    /// Forward pass on a batch (`K × in_features`), returns `K × out_features`.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Backward pass: takes `∂L/∂output` (`K × out_features`), accumulates
    /// parameter gradients, returns `∂L/∂input`.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Tells the layer which products of `backward` are read from now on.
    /// Layers with nothing worth skipping ignore it.
    fn set_backward_needs(&mut self, needs: BackwardNeeds) {
        let _ = needs;
    }

    /// The layer's parameters, if it has any.
    fn params(&self) -> Option<&ParamBlock> {
        None
    }

    /// Mutable access to the layer's parameters, if it has any.
    fn params_mut(&mut self) -> Option<&mut ParamBlock> {
        None
    }

    /// The per-sample sufficient factors of the most recent `backward` call.
    ///
    /// Only FC layers return `Some`: their weight gradient over a batch is
    /// `Σₖ uₖvₖᵀ` with `uₖ` the back-propagated error and `vₖ` the input
    /// activation of sample `k`. The bias gradient is `Σₖ uₖ`, so the factors
    /// alone fully determine the update.
    fn sufficient_factors(&self) -> Option<SfBatch> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_shape_len_and_flat() {
        let s = TensorShape::new(3, 32, 32);
        assert_eq!(s.len(), 3072);
        assert!(!s.is_empty());
        let f = TensorShape::flat(100);
        assert_eq!(f.len(), 100);
        assert_eq!(f.to_string(), "100x1x1");
    }

    #[test]
    fn param_block_counts_weights_and_bias() {
        let p = ParamBlock::new(10, 20);
        assert_eq!(p.num_params(), 210);
    }

    #[test]
    fn apply_own_grads_steps_parameters() {
        let mut p = ParamBlock::new(2, 2);
        p.grad_weights = Matrix::filled(2, 2, 1.0);
        p.grad_bias = Matrix::filled(1, 2, 2.0);
        p.apply_own_grads(-0.5);
        assert!(p.weights.as_slice().iter().all(|&w| w == -0.5));
        assert!(p.bias.as_slice().iter().all(|&b| b == -1.0));
        // Gradients must survive the call (the syncer reads them afterwards).
        assert_eq!(p.grad_weights, Matrix::filled(2, 2, 1.0));
    }

    #[test]
    fn apply_update_uses_external_grads() {
        let mut p = ParamBlock::new(1, 1);
        p.grad_weights = Matrix::filled(1, 1, 99.0); // must be ignored
        let gw = Matrix::filled(1, 1, 2.0);
        let gb = Matrix::filled(1, 1, 4.0);
        p.apply_update(&gw, &gb, 0.25);
        assert_eq!(p.weights[(0, 0)], 0.5);
        assert_eq!(p.bias[(0, 0)], 1.0);
    }

    #[test]
    fn set_params_replaces_values() {
        let mut p = ParamBlock::new(1, 2);
        p.set_params(&Matrix::filled(1, 2, 3.0), &Matrix::filled(1, 1, 4.0));
        assert_eq!(p.weights.as_slice(), &[3.0, 3.0]);
        assert_eq!(p.bias[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn set_params_checks_shape() {
        let mut p = ParamBlock::new(1, 2);
        p.set_params(&Matrix::zeros(2, 2), &Matrix::zeros(1, 1));
    }

    #[test]
    fn clear_grads_zeroes_only_grads() {
        let mut p = ParamBlock::new(2, 2);
        p.weights = Matrix::filled(2, 2, 1.0);
        p.grad_weights = Matrix::filled(2, 2, 5.0);
        p.grad_bias = Matrix::filled(1, 2, 5.0);
        p.clear_grads();
        assert_eq!(p.grad_weights.max_abs(), 0.0);
        assert_eq!(p.grad_bias.max_abs(), 0.0);
        assert_eq!(p.weights, Matrix::filled(2, 2, 1.0));
    }
}
