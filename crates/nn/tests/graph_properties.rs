//! Property-based tests for the DAG network container.

use poseidon_nn::graph::GraphNetwork;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::layers::{FullyConnected, ReLU};
use poseidon_nn::Model;
use poseidon_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random-ish layered DAG of FC layers: `width` parallel branches
/// from a shared stem, concatenated into a classifier.
fn fan_out_graph(
    input: usize,
    branches: usize,
    hidden: usize,
    classes: usize,
    seed: u64,
) -> GraphNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphNetwork::new(TensorShape::flat(input));
    let stem = g.add_layer(
        g.input(),
        Box::new(FullyConnected::new("stem", input, hidden, &mut rng)),
    );
    let relu = g.add_layer(
        stem,
        Box::new(ReLU::new("stem_relu", TensorShape::flat(hidden))),
    );
    let mut outs = Vec::new();
    for b in 0..branches {
        let id = g.add_layer(
            relu,
            Box::new(FullyConnected::new(
                format!("branch{b}"),
                hidden,
                hidden,
                &mut rng,
            )),
        );
        outs.push(id);
    }
    let cat = g.concat(&outs);
    let fc = g.add_layer(
        cat,
        Box::new(FullyConnected::new(
            "head",
            branches * hidden,
            classes,
            &mut rng,
        )),
    );
    g.set_output(fc);
    g
}

fn random_input(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    poseidon_tensor::init::gaussian(&mut m, 0.0, 1.0, &mut StdRng::seed_from_u64(seed));
    m
}

proptest! {
    /// Forward is deterministic and batch rows are independent.
    #[test]
    fn graph_forward_rows_are_independent(
        branches in 1usize..4,
        hidden in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut g = fan_out_graph(5, branches, hidden, 3, seed);
        let x = random_input(3, 5, seed ^ 0x55);
        let whole = g.forward(&x);
        for r in 0..3 {
            let row = Matrix::from_vec(1, 5, x.row(r).to_vec());
            let single = g.forward(&row);
            for c in 0..3 {
                prop_assert!((whole[(r, c)] - single[(0, c)]).abs() < 1e-5);
            }
        }
    }

    /// The WFBP callback order is strictly reverse-topological for any fan-out.
    #[test]
    fn graph_callback_order_is_reverse_topological(
        branches in 1usize..5,
        seed in 0u64..100,
    ) {
        let mut g = fan_out_graph(4, branches, 3, 2, seed);
        let x = random_input(2, 4, seed);
        let y = g.forward(&x);
        let mut grad = Matrix::zeros(y.rows(), y.cols());
        grad.map_inplace(|_| 0.1);
        let mut order = Vec::new();
        g.backward_with(&grad, &mut |id, _, _| order.push(id));
        for w in order.windows(2) {
            prop_assert!(w[0] > w[1], "non-monotone callback order {order:?}");
        }
        prop_assert_eq!(order.len(), g.trainable_slots().len() + 1 /* relu */);
    }

    /// A shared stem feeding N identical branches receives exactly N times
    /// the gradient of the single-branch case (fan-out accumulation).
    #[test]
    fn graph_fan_out_gradient_scales_with_branch_count(
        branches in 2usize..5,
        seed in 0u64..50,
    ) {
        // Build the N-branch graph and a 1-branch graph whose branch weights
        // equal branch 0's — with all branch weights forced identical, the
        // stem gradient of the N-branch graph is N x the 1-branch gradient.
        let hidden = 4;
        let mut multi = fan_out_graph(5, branches, hidden, 2, seed);
        let mut single = fan_out_graph(5, 1, hidden, 2, seed);

        // Force every branch of `multi` to match `single`'s branch 0, and the
        // heads to be column-replications so output paths are identical.
        let branch_w = single.slot(3).unwrap().params().unwrap().weights.clone();
        let branch_b = single.slot(3).unwrap().params().unwrap().bias.clone();
        for b in 0..branches {
            let p = multi.slot_mut(3 + b).unwrap().params_mut().unwrap();
            p.set_params(&branch_w, &branch_b);
        }
        // Head of single: 2 x hidden. Head of multi: 2 x branches*hidden —
        // fill with single's head tiled, scaled by 1/branches so outputs match.
        let head_single = single.slot(4 + 1).unwrap().params().unwrap().weights.clone();
        let head_bias = single.slot(4 + 1).unwrap().params().unwrap().bias.clone();
        let mut tiled = Matrix::zeros(2, branches * hidden);
        for r in 0..2 {
            for b in 0..branches {
                for c in 0..hidden {
                    tiled[(r, b * hidden + c)] = head_single[(r, c)] / branches as f32;
                }
            }
        }
        {
            let p = multi.slot_mut(3 + branches + 1).unwrap().params_mut().unwrap();
            p.set_params(&tiled, &head_bias);
        }
        // Stems already identical (same seed/order of construction).
        let stem_w_m = multi.slot(1).unwrap().params().unwrap().weights.clone();
        let stem_w_s = single.slot(1).unwrap().params().unwrap().weights.clone();
        prop_assert!(stem_w_m.max_abs_diff(&stem_w_s) < 1e-7);

        let x = random_input(2, 5, seed ^ 0x77);
        let ym = multi.forward(&x);
        let ys = single.forward(&x);
        prop_assert!(ym.max_abs_diff(&ys) < 1e-4, "outputs should match by construction");

        let grad = random_input(2, 2, seed ^ 0x99);
        multi.backward(&grad);
        single.backward(&grad);
        let gm = &multi.slot(1).unwrap().params().unwrap().grad_weights;
        let gs = &single.slot(1).unwrap().params().unwrap().grad_weights;
        // Same loss, same function — the stem gradients must agree.
        prop_assert!(gm.max_abs_diff(gs) <= 1e-3 * (1.0 + gs.max_abs()),
            "stem gradient mismatch across equivalent graphs");
    }

    /// Replicas built by the same constructor are bitwise identical (the
    /// property the distributed runtime's slot addressing relies on).
    #[test]
    fn graph_replicas_are_identical(branches in 1usize..4, seed in 0u64..200) {
        let a = fan_out_graph(6, branches, 3, 2, seed);
        let b = fan_out_graph(6, branches, 3, 2, seed);
        prop_assert_eq!(a.max_param_diff_with(&b), 0.0);
    }
}
