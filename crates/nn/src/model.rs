//! The `Model` abstraction: what Poseidon requires from a computation engine.
//!
//! The paper stresses that WFBP "is generally applicable to other non-chain
//! like structures (e.g., tree-like structures), as the parameter
//! optimization for deep neural networks depends on adjacent layers (and not
//! the whole network)". This trait captures the contract the distributed
//! runtime actually needs — addressable parameter slots and a backward pass
//! that reports per-layer gradient completion and lends out the layers it
//! has finished with — so both the sequential [`crate::network::Network`]
//! and the branched [`crate::graph::GraphNetwork`] can be trained by the same
//! Poseidon client library.

use crate::graph::Node;
use crate::layer::{Layer, TensorShape};
use poseidon_tensor::Matrix;

/// The slots whose backward pass has already run, lent to the
/// [`Model::backward_with`] callback: their gradients are final and nothing
/// below reads their parameters again this pass, so a synchronised update
/// may be written into them while the layers below still back-propagate.
/// The slot whose callback is running and every slot below it are out of
/// reach.
pub struct Finished<'a> {
    /// Id of the first slot of `slots`; both models walk ids downward, so
    /// the finished slots are exactly the ids from here up.
    first: usize,
    slots: FinishedSlots<'a>,
}

enum FinishedSlots<'a> {
    Chain(&'a mut [Box<dyn Layer>]),
    Graph(&'a mut [Node]),
}

impl<'a> Finished<'a> {
    pub(crate) fn chain(first: usize, layers: &'a mut [Box<dyn Layer>]) -> Self {
        Self {
            first,
            slots: FinishedSlots::Chain(layers),
        }
    }

    pub(crate) fn graph(first: usize, nodes: &'a mut [Node]) -> Self {
        Self {
            first,
            slots: FinishedSlots::Graph(nodes),
        }
    }

    /// The finished layer at slot `id`; `None` for a slot that is not
    /// finished yet, is structural, or does not exist.
    pub fn slot_mut(&mut self, id: usize) -> Option<&mut dyn Layer> {
        let at = id.checked_sub(self.first)?;
        match &mut self.slots {
            // (Not `map`: the trait object's lifetime shortens only by coercion.)
            FinishedSlots::Chain(layers) => match layers.get_mut(at) {
                Some(layer) => Some(layer.as_mut()),
                None => None,
            },
            FinishedSlots::Graph(nodes) => nodes.get_mut(at).and_then(Node::layer_mut),
        }
    }
}

/// A trainable model with independently-synchronisable parameter slots.
pub trait Model: Send {
    /// The expected input shape.
    fn input_shape(&self) -> TensorShape;

    /// Number of addressable slots. Slot ids are stable for the lifetime of
    /// the model and shared across identically-constructed replicas.
    fn num_slots(&self) -> usize;

    /// The layer at `id`, or `None` for structural slots (e.g. concat nodes).
    fn slot(&self, id: usize) -> Option<&dyn Layer>;

    /// Mutable access to the layer at `id`.
    fn slot_mut(&mut self, id: usize) -> Option<&mut dyn Layer>;

    /// `true` iff slot `id` is a layer fed by the model input: nobody reads
    /// the gradient it would propagate further down
    /// ([`crate::layer::BackwardNeeds::input_grad`]).
    fn reads_input(&self, id: usize) -> bool;

    /// Feed-forward over a batch.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Backward pass; `on_layer_done(id, layer, finished)` fires the moment
    /// slot `id`'s parameter gradients are final — the WFBP hook — with the
    /// slots that fired before it lent out through `finished`. Callback
    /// order must follow gradient-completion order (reverse topological).
    fn backward_with(
        &mut self,
        grad_top: &Matrix,
        on_layer_done: &mut dyn FnMut(usize, &mut dyn Layer, &mut Finished<'_>),
    );

    /// Backward pass without a callback.
    fn backward(&mut self, grad_top: &Matrix) {
        self.backward_with(grad_top, &mut |_, _, _| {});
    }

    /// Slot ids that own parameters, ascending.
    fn trainable_slots(&self) -> Vec<usize> {
        (0..self.num_slots())
            .filter(|&id| self.slot(id).is_some_and(|l| l.params().is_some()))
            .collect()
    }

    /// Total trainable scalar count.
    fn total_params(&self) -> usize {
        self.trainable_slots()
            .iter()
            .filter_map(|&id| self.slot(id).and_then(|l| l.params()))
            .map(|p| p.num_params())
            .sum()
    }

    /// Applies `params += alpha * own grads` on every trainable slot
    /// (single-replica SGD).
    fn apply_own_grads(&mut self, alpha: f32) {
        for id in self.trainable_slots() {
            if let Some(p) = self.slot_mut(id).and_then(|l| l.params_mut()) {
                p.apply_own_grads(alpha);
            }
        }
    }

    /// Maximum absolute parameter difference to an identically-structured
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the slot structure differs.
    fn max_param_diff_with(&self, other: &dyn Model) -> f32 {
        assert_eq!(self.num_slots(), other.num_slots(), "slot count mismatch");
        let mut max = 0.0f32;
        for id in 0..self.num_slots() {
            match (
                self.slot(id).and_then(|l| l.params()),
                other.slot(id).and_then(|l| l.params()),
            ) {
                (Some(a), Some(b)) => {
                    max = max.max(a.weights.max_abs_diff(&b.weights));
                    max = max.max(a.bias.max_abs_diff(&b.bias));
                }
                (None, None) => {}
                _ => panic!("trainable-slot mismatch at slot {id}"),
            }
        }
        max
    }
}

impl Model for crate::network::Network {
    fn input_shape(&self) -> TensorShape {
        crate::network::Network::input_shape(self)
    }

    fn num_slots(&self) -> usize {
        self.num_layers()
    }

    fn slot(&self, id: usize) -> Option<&dyn Layer> {
        (id < self.num_layers()).then(|| self.layer(id))
    }

    fn slot_mut(&mut self, id: usize) -> Option<&mut dyn Layer> {
        (id < self.num_layers()).then(|| self.layer_mut(id))
    }

    fn reads_input(&self, id: usize) -> bool {
        id == 0 && self.num_layers() > 0
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        crate::network::Network::forward(self, input)
    }

    fn backward_with(
        &mut self,
        grad_top: &Matrix,
        on_layer_done: &mut dyn FnMut(usize, &mut dyn Layer, &mut Finished<'_>),
    ) {
        crate::network::Network::backward_with(self, grad_top, on_layer_done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn network_implements_model() {
        let mut net = presets::mlp(&[6, 8, 3], 1);
        assert_eq!(Model::num_slots(&net), 3);
        assert_eq!(net.trainable_slots(), vec![0, 2]);
        assert_eq!(Model::total_params(&net), 6 * 8 + 8 + 8 * 3 + 3);
        assert!(
            Model::slot(&net, 1).unwrap().params().is_none(),
            "relu slot"
        );
        assert!(Model::slot(&net, 3).is_none(), "out of range");

        let x = Matrix::filled(2, 6, 0.5);
        let y = Model::forward(&mut net, &x);
        assert_eq!(y.shape(), (2, 3));
        let mut order = Vec::new();
        Model::backward_with(&mut net, &Matrix::filled(2, 3, 0.1), &mut |id, _, _| {
            order.push(id)
        });
        assert_eq!(order, vec![2, 1, 0]);
        assert!(net.reads_input(0) && !net.reads_input(2));
    }

    #[test]
    fn max_param_diff_with_matches_network_method() {
        let a = presets::mlp(&[4, 5, 2], 2);
        let b = presets::mlp(&[4, 5, 2], 3);
        let via_trait = a.max_param_diff_with(&b);
        let via_inherent = a.max_param_diff(&b);
        assert_eq!(via_trait, via_inherent);
    }
}
