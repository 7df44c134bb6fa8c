//! Branched (DAG) networks — inception-style modules with real training.
//!
//! The paper notes WFBP extends beyond chain networks because parameters only
//! depend on adjacent layers. [`GraphNetwork`] realises that: nodes form a
//! DAG (layers, channel-concatenations, one input), the backward pass visits
//! nodes in reverse-topological order, and each layer's gradient-done callback
//! fires while upstream branches are still computing — the same hook the
//! sequential [`crate::network::Network`] provides, so the distributed runtime
//! trains either through [`crate::model::Model`].

use crate::layer::{Layer, TensorShape};
use crate::model::{Finished, Model};
use poseidon_tensor::Matrix;

pub(crate) enum Node {
    /// The (single) graph input.
    Input,
    /// A layer applied to one upstream node.
    Layer { layer: Box<dyn Layer>, input: usize },
    /// Channel-wise concatenation of upstream nodes (equal spatial dims).
    Concat {
        inputs: Vec<usize>,
        shape: TensorShape,
    },
}

impl Node {
    pub(crate) fn layer_mut(&mut self) -> Option<&mut dyn Layer> {
        match self {
            Node::Layer { layer, .. } => Some(layer.as_mut()),
            _ => None,
        }
    }
}

/// A DAG of layers with one input and one output.
///
/// Node ids are assigned in insertion order and double as a topological
/// order: a node may only consume earlier nodes. Replicas built by the same
/// deterministic constructor share ids, which is what the distributed
/// runtime's slot addressing requires.
pub struct GraphNetwork {
    input_shape: TensorShape,
    nodes: Vec<Node>,
    output: Option<usize>,
    activations: Vec<Option<Matrix>>,
}

impl GraphNetwork {
    /// Creates a graph with the input node (id 0) in place.
    pub fn new(input_shape: TensorShape) -> Self {
        Self {
            input_shape,
            nodes: vec![Node::Input],
            output: None,
            activations: Vec::new(),
        }
    }

    /// The input node's id (always 0).
    pub fn input(&self) -> usize {
        0
    }

    /// The activation shape produced by node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_shape(&self, id: usize) -> TensorShape {
        match &self.nodes[id] {
            Node::Input => self.input_shape,
            Node::Layer { layer, .. } => layer.output_shape(),
            Node::Concat { shape, .. } => *shape,
        }
    }

    /// Appends a layer consuming node `input`; returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not an existing node (ids must be topological).
    pub fn add_layer(&mut self, input: usize, layer: Box<dyn Layer>) -> usize {
        assert!(
            input < self.nodes.len(),
            "input node {input} does not exist"
        );
        self.nodes.push(Node::Layer { layer, input });
        self.nodes.len() - 1
    }

    /// Appends a channel-concatenation of `inputs`; returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, references unknown nodes, or the inputs
    /// disagree on spatial dimensions.
    pub fn concat(&mut self, inputs: &[usize]) -> usize {
        assert!(!inputs.is_empty(), "concat needs at least one input");
        for &i in inputs {
            assert!(i < self.nodes.len(), "input node {i} does not exist");
        }
        let first = self.node_shape(inputs[0]);
        let mut channels = 0;
        for &i in inputs {
            let s = self.node_shape(i);
            assert_eq!(
                (s.h, s.w),
                (first.h, first.w),
                "concat inputs must share spatial dims"
            );
            channels += s.c;
        }
        let shape = TensorShape::new(channels, first.h, first.w);
        self.nodes.push(Node::Concat {
            inputs: inputs.to_vec(),
            shape,
        });
        self.nodes.len() - 1
    }

    /// Declares node `id` as the graph output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown, or any node is *not* an ancestor of the
    /// output (a disconnected layer would silently never synchronise).
    pub fn set_output(&mut self, id: usize) {
        assert!(id < self.nodes.len(), "output node {id} does not exist");
        // Reachability check backwards from the output.
        let mut needed = vec![false; self.nodes.len()];
        needed[id] = true;
        for n in (0..self.nodes.len()).rev() {
            if !needed[n] {
                continue;
            }
            match &self.nodes[n] {
                Node::Input => {}
                Node::Layer { input, .. } => needed[*input] = true,
                Node::Concat { inputs, .. } => {
                    for &i in inputs {
                        needed[i] = true;
                    }
                }
            }
        }
        if let Some(orphan) = needed.iter().position(|&n| !n) {
            panic!("node {orphan} does not feed the output — remove it or rewire");
        }
        self.output = Some(id);
    }
}

impl Model for GraphNetwork {
    fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    fn slot(&self, id: usize) -> Option<&dyn Layer> {
        match self.nodes.get(id)? {
            Node::Layer { layer, .. } => Some(layer.as_ref()),
            _ => None,
        }
    }

    fn slot_mut(&mut self, id: usize) -> Option<&mut dyn Layer> {
        self.nodes.get_mut(id)?.layer_mut()
    }

    fn reads_input(&self, id: usize) -> bool {
        matches!(self.nodes.get(id), Some(Node::Layer { input: 0, .. }))
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.input_shape.len(),
            "input width {} != declared input shape {}",
            input.cols(),
            self.input_shape
        );
        let output = self.output.expect("set_output before forward");
        self.activations = (0..self.nodes.len()).map(|_| None).collect();
        self.activations[0] = Some(input.clone());
        for id in 1..self.nodes.len() {
            let act = match &mut self.nodes[id] {
                Node::Input => unreachable!("only node 0 is the input"),
                Node::Layer { layer, input } => {
                    let x = self.activations[*input]
                        .as_ref()
                        .expect("topological order guarantees the input is computed");
                    crate::probe::emit(crate::probe::ProbeEvent::ForwardBegin { layer: id });
                    let act = layer.forward(x);
                    crate::probe::emit(crate::probe::ProbeEvent::ForwardEnd { layer: id });
                    act
                }
                Node::Concat { inputs, shape } => {
                    let batch = self.activations[inputs[0]]
                        .as_ref()
                        .expect("computed")
                        .rows();
                    let mut out = Matrix::zeros(batch, shape.len());
                    let mut offset = 0usize;
                    for &i in inputs.iter() {
                        let part = self.activations[i].as_ref().expect("computed");
                        let width = part.cols();
                        for s in 0..batch {
                            out.row_mut(s)[offset..offset + width].copy_from_slice(part.row(s));
                        }
                        offset += width;
                    }
                    out
                }
            };
            self.activations[id] = Some(act);
        }
        self.activations[output].clone().expect("output computed")
    }

    fn backward_with(
        &mut self,
        grad_top: &Matrix,
        on_layer_done: &mut dyn FnMut(usize, &mut dyn Layer, &mut Finished<'_>),
    ) {
        let output = self.output.expect("set_output before backward");
        assert!(
            !self.activations.is_empty(),
            "backward called before forward"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[output] = Some(grad_top.clone());
        for id in (1..self.nodes.len()).rev() {
            let Some(g) = grads[id].take() else {
                unreachable!("set_output verified every node feeds the output");
            };
            // Ids are a topological order walked downward: every node above
            // `id` is finished.
            let (lower, upper) = self.nodes.split_at_mut(id + 1);
            match &mut lower[id] {
                Node::Input => unreachable!(),
                Node::Layer { layer, input } => {
                    crate::probe::emit(crate::probe::ProbeEvent::BackwardBegin { layer: id });
                    let gin = layer.backward(&g);
                    crate::probe::emit(crate::probe::ProbeEvent::BackwardEnd { layer: id });
                    on_layer_done(id, layer.as_mut(), &mut Finished::graph(id + 1, upper));
                    // Nobody reads the gradient of the graph input (and a
                    // layer told so returns a placeholder for it).
                    if *input != 0 {
                        accumulate(&mut grads[*input], gin);
                    }
                }
                Node::Concat { inputs, .. } => {
                    let mut offset = 0usize;
                    for &i in inputs.iter() {
                        let width = self.activations[i].as_ref().expect("forward ran").cols();
                        let mut part = Matrix::zeros(g.rows(), width);
                        for s in 0..g.rows() {
                            part.row_mut(s)
                                .copy_from_slice(&g.row(s)[offset..offset + width]);
                        }
                        offset += width;
                        accumulate(&mut grads[i], part);
                    }
                }
            }
        }
    }
}

fn accumulate(slot: &mut Option<Matrix>, g: Matrix) {
    match slot {
        Some(acc) => acc.add_assign(&g),
        None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, FullyConnected, MaxPool2d, ReLU};
    use crate::loss::SoftmaxCrossEntropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A two-branch inception-style block on 1×4×4 inputs ending in a 3-way
    /// classifier.
    fn branched(seed: u64) -> GraphNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = TensorShape::new(1, 4, 4);
        let mut g = GraphNetwork::new(shape);
        let stem = g.add_layer(
            g.input(),
            Box::new(Conv2d::new("stem", shape, 2, 3, 1, 1, &mut rng)),
        );
        let stem_shape = g.node_shape(stem);
        let b1 = g.add_layer(
            stem,
            Box::new(Conv2d::new("b1_1x1", stem_shape, 2, 1, 1, 0, &mut rng)),
        );
        let b2a = g.add_layer(
            stem,
            Box::new(Conv2d::new("b2_1x1", stem_shape, 2, 1, 1, 0, &mut rng)),
        );
        let b2 = g.add_layer(
            b2a,
            Box::new(Conv2d::new(
                "b2_3x3",
                g.node_shape(b2a),
                3,
                3,
                1,
                1,
                &mut rng,
            )),
        );
        let merged = g.concat(&[b1, b2]);
        let relu = g.add_layer(merged, Box::new(ReLU::new("relu", g.node_shape(merged))));
        let pool = g.add_layer(
            relu,
            Box::new(MaxPool2d::new("pool", g.node_shape(relu), 2, 2)),
        );
        let flat = g.node_shape(pool).len();
        let fc = g.add_layer(pool, Box::new(FullyConnected::new("fc", flat, 3, &mut rng)));
        g.set_output(fc);
        g
    }

    #[test]
    fn forward_produces_logits() {
        let mut g = branched(1);
        let x = Matrix::filled(2, 16, 0.3);
        let y = g.forward(&x);
        assert_eq!(y.shape(), (2, 3));
        assert_eq!(g.trainable_slots(), vec![1, 2, 3, 4, 8]);
    }

    #[test]
    fn concat_stacks_channels_in_input_order() {
        let shape = TensorShape::new(1, 1, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = GraphNetwork::new(shape);
        // Two 1x1 "identity-able" convs on the same input.
        let a = g.add_layer(
            g.input(),
            Box::new(Conv2d::new("a", shape, 1, 1, 1, 0, &mut rng)),
        );
        let b = g.add_layer(
            g.input(),
            Box::new(Conv2d::new("b", shape, 1, 1, 1, 0, &mut rng)),
        );
        let m = g.concat(&[a, b]);
        g.set_output(m);
        // Force conv a to multiply by 2 and conv b by -1.
        g.slot_mut(a).unwrap().params_mut().unwrap().weights = Matrix::filled(1, 1, 2.0);
        g.slot_mut(a).unwrap().params_mut().unwrap().bias = Matrix::zeros(1, 1);
        g.slot_mut(b).unwrap().params_mut().unwrap().weights = Matrix::filled(1, 1, -1.0);
        g.slot_mut(b).unwrap().params_mut().unwrap().bias = Matrix::zeros(1, 1);
        let y = g.forward(&Matrix::from_vec(1, 2, vec![1.0, 3.0]));
        assert_eq!(y.as_slice(), &[2.0, 6.0, -1.0, -3.0]);
    }

    #[test]
    fn backward_callback_order_is_reverse_topological() {
        let mut g = branched(2);
        let x = Matrix::filled(2, 16, 0.1);
        let y = g.forward(&x);
        let out = SoftmaxCrossEntropy.evaluate(&y, &[0, 1]);
        let mut order = Vec::new();
        g.backward_with(&out.grad, &mut |id, _, _| order.push(id));
        // Layers only (no concat/pool-only callbacks for stateless? pool and
        // relu ARE layer nodes, so they appear too), strictly decreasing ids.
        for w in order.windows(2) {
            assert!(
                w[0] > w[1],
                "callback order must be reverse-topological: {order:?}"
            );
        }
        assert_eq!(*order.first().unwrap(), 8, "fc first");
        assert_eq!(*order.last().unwrap(), 1, "stem last");
    }

    #[test]
    fn fan_out_gradients_accumulate() {
        // Numeric gradient through the shared stem: both branches contribute.
        let mut g = branched(4);
        let mut x = Matrix::zeros(1, 16);
        poseidon_tensor::init::gaussian(&mut x, 0.0, 1.0, &mut StdRng::seed_from_u64(5));
        let labels = [2usize];
        let head = SoftmaxCrossEntropy;

        let y = g.forward(&x);
        let out = head.evaluate(&y, &labels);
        g.backward(&out.grad);
        let analytic = g.slot(1).unwrap().params().unwrap().grad_weights.clone();

        let eps = 1e-2f32;
        for &(r, c) in &[(0usize, 0usize), (1, 4), (0, 8)] {
            let orig = g.slot(1).unwrap().params().unwrap().weights[(r, c)];
            g.slot_mut(1).unwrap().params_mut().unwrap().weights[(r, c)] = orig + eps;
            let up = head.evaluate(&g.forward(&x), &labels).loss;
            g.slot_mut(1).unwrap().params_mut().unwrap().weights[(r, c)] = orig - eps;
            let dn = head.evaluate(&g.forward(&x), &labels).loss;
            g.slot_mut(1).unwrap().params_mut().unwrap().weights[(r, c)] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (analytic[(r, c)] - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "stem dW[{r},{c}] {} vs numeric {numeric}",
                analytic[(r, c)]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_branched_network() {
        let mut g = branched(6);
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = Matrix::zeros(6, 16);
        poseidon_tensor::init::gaussian(&mut x, 0.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2];
        let head = SoftmaxCrossEntropy;
        let first = head.evaluate(&g.forward(&x), &labels).loss;
        for _ in 0..80 {
            let out = head.evaluate(&g.forward(&x), &labels);
            g.backward(&out.grad);
            g.apply_own_grads(-0.3);
        }
        let last = head.evaluate(&g.forward(&x), &labels).loss;
        assert!(last < first * 0.3, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "does not feed the output")]
    fn disconnected_node_is_rejected() {
        let shape = TensorShape::flat(4);
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = GraphNetwork::new(shape);
        let a = g.add_layer(
            g.input(),
            Box::new(FullyConnected::new("a", 4, 2, &mut rng)),
        );
        let _orphan = g.add_layer(
            g.input(),
            Box::new(FullyConnected::new("b", 4, 2, &mut rng)),
        );
        g.set_output(a);
    }

    #[test]
    #[should_panic(expected = "share spatial dims")]
    fn concat_rejects_mismatched_spatial_dims() {
        let shape = TensorShape::new(1, 4, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = GraphNetwork::new(shape);
        let a = g.add_layer(
            g.input(),
            Box::new(Conv2d::new("a", shape, 1, 3, 1, 1, &mut rng)),
        );
        let b = g.add_layer(
            g.input(),
            Box::new(Conv2d::new("b", shape, 1, 3, 2, 1, &mut rng)),
        );
        let _ = g.concat(&[a, b]);
    }

    #[test]
    fn replicas_from_same_seed_are_identical() {
        let a = branched(11);
        let b = branched(11);
        assert_eq!(a.max_param_diff_with(&b), 0.0);
        let c = branched(12);
        assert!(a.max_param_diff_with(&c) > 0.0);
    }
}
