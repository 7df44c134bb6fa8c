//! Non-chain networks under WFBP: build an inception-style DAG with two
//! parallel branches, train it distributed, and show the per-slot scheme
//! decisions plus the reverse-topological gradient-completion order the
//! wait-free scheduler hooks into.
//!
//! Run: `cargo run --release --example branched_network`

use poseidon::config::{ClusterConfig, Partition, SchemePolicy};
use poseidon::coordinator::Coordinator;
use poseidon::runtime::{evaluate_error, train, RuntimeConfig};
use poseidon_nn::data::Dataset;
use poseidon_nn::graph::GraphNetwork;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::layers::{Conv2d, FullyConnected, MaxPool2d, ReLU};
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(classes: usize, seed: u64) -> GraphNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = TensorShape::new(3, 8, 8);
    let mut g = GraphNetwork::new(shape);
    let stem = g.add_layer(
        g.input(),
        Box::new(Conv2d::new("stem", shape, 8, 3, 1, 1, &mut rng)),
    );
    let s = g.node_shape(stem);
    let b1 = g.add_layer(
        stem,
        Box::new(Conv2d::new("branch1/1x1", s, 4, 1, 1, 0, &mut rng)),
    );
    let b2a = g.add_layer(
        stem,
        Box::new(Conv2d::new("branch2/reduce", s, 4, 1, 1, 0, &mut rng)),
    );
    let b2 = g.add_layer(
        b2a,
        Box::new(Conv2d::new(
            "branch2/3x3",
            g.node_shape(b2a),
            8,
            3,
            1,
            1,
            &mut rng,
        )),
    );
    let cat = g.concat(&[b1, b2]);
    let relu = g.add_layer(cat, Box::new(ReLU::new("relu", g.node_shape(cat))));
    let pool = g.add_layer(
        relu,
        Box::new(MaxPool2d::new("pool", g.node_shape(relu), 2, 2)),
    );
    let fc = g.add_layer(
        pool,
        Box::new(FullyConnected::new(
            "classifier",
            g.node_shape(pool).len(),
            classes,
            &mut rng,
        )),
    );
    g.set_output(fc);
    g
}

fn main() {
    let mut g = build(4, 7);
    println!(
        "built a two-branch DAG with {} slots, {} trainable",
        g.num_slots(),
        g.trainable_slots().len()
    );

    // Show the WFBP hook order: gradients complete reverse-topologically,
    // so the classifier's sync starts while both conv branches still compute.
    let x = poseidon_tensor::Matrix::filled(2, 192, 0.1);
    let y = g.forward(&x);
    let out = SoftmaxCrossEntropy.evaluate(&y, &[0, 1]);
    print!("gradient completion order:");
    g.backward_with(&out.grad, &mut |id, layer, _| {
        print!(" {}#{id}", layer.name())
    });
    println!();

    // What the coordinator decides per slot.
    let coord = Coordinator::from_model(
        &g,
        ClusterConfig::colocated(4, 8),
        SchemePolicy::Hybrid,
        Partition::default_kv_pairs(),
    );
    for (slot, scheme) in coord.scheme_assignment() {
        println!(
            "  slot {slot:2} {:18} -> {scheme}",
            coord.layers()[slot].name
        );
    }

    // Train it distributed across 4 in-process machines.
    let all = Dataset::smooth_clusters(TensorShape::new(3, 8, 8), 4, 640, 1.2, 19);
    let (train_set, test_set) = all.split_at(512);
    let cfg = RuntimeConfig {
        momentum: 0.9,
        ..RuntimeConfig::new(4, 8, 0.02, 150)
    };
    let result = train(&|| build(4, 7), &train_set, None, &cfg);
    let mut net = result.net;
    println!(
        "\ntrained 150 iterations on 4 workers: loss {:.3} -> {:.3}, test error {:.3}",
        result.losses[0],
        result.losses.last().unwrap(),
        evaluate_error(&mut net, &test_set)
    );
}
