//! The `backward_with` contract the distributed runtime builds on, for the
//! chain and the DAG alike: the callback of slot `id` is lent exactly the
//! slots whose callbacks fired before it — never itself, never one below —
//! and what it writes into them is what the next `forward` computes with.
//! And the two things a layer may be told to skip: without *input gradient*
//! `dW`/`db` keep every bit, without *weight gradient* the sufficient
//! factors, `db` and `dX` do.
//!
//! Proptest-free on purpose: `offline/Cargo.toml` lists this suite.

use poseidon_nn::layer::{BackwardNeeds, Layer, TensorShape};
use poseidon_nn::layers::{Conv2d, FullyConnected, MaxPool2d, ReLU};
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::{presets, GraphNetwork, Model};
use poseidon_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn ramp(rows: usize, cols: usize, seed: u32) -> Matrix {
    let vals = (0..(rows * cols) as u32)
        .map(|i| ((i.wrapping_mul(2654435761) ^ seed) % 2003) as f32 / 977.0 - 1.0)
        .collect();
    Matrix::from_vec(rows, cols, vals)
}

/// Two conv branches off one stem, concatenated, then ReLU → pool → FC.
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
        Box::new(Conv2d::new("b1", stem_shape, 2, 1, 1, 0, &mut rng)),
    );
    let b2 = g.add_layer(
        stem,
        Box::new(Conv2d::new("b2", stem_shape, 3, 3, 1, 1, &mut rng)),
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

/// Runs one forward/backward of `model` and checks, in every callback, which
/// slots the view lends. Returns the ids in callback order.
fn assert_view_is_exactly_the_fired_slots<M: Model>(model: &mut M, x: &Matrix) -> Vec<usize> {
    let labels: Vec<usize> = (0..x.rows()).map(|i| i % 3).collect();
    let logits = model.forward(x);
    let out = SoftmaxCrossEntropy.evaluate(&logits, &labels);
    let slots = model.num_slots();
    // Structural slots (the graph's input and concat nodes) are never lent.
    let is_layer: Vec<bool> = (0..slots).map(|id| model.slot(id).is_some()).collect();
    let mut fired: Vec<usize> = Vec::new();
    model.backward_with(&out.grad, &mut |id, layer, finished| {
        assert!(is_layer[id], "callback for structural slot {id}");
        for other in 0..slots + 2 {
            let lent = finished.slot_mut(other).is_some();
            let expect = fired.contains(&other);
            assert_eq!(
                lent, expect,
                "in the callback of slot {id} ({}), slot {other}: lent={lent}, fired before={expect}",
                layer.name()
            );
        }
        fired.push(id);
    });
    let expect: Vec<usize> = (0..slots).rev().filter(|&id| is_layer[id]).collect();
    assert_eq!(fired, expect, "every layer fires once, ids descending");
    fired
}

#[test]
fn the_view_lends_exactly_the_slots_whose_callback_already_fired() {
    let mut chain = presets::mlp(&[6, 8, 5, 3], 4);
    let order = assert_view_is_exactly_the_fired_slots(&mut chain, &ramp(4, 6, 1));
    assert_eq!(order, vec![4, 3, 2, 1, 0]);
    assert!(chain.reads_input(0) && (1..5).all(|id| !chain.reads_input(id)));

    let mut graph = branched(2);
    assert_view_is_exactly_the_fired_slots(&mut graph, &ramp(2, 16, 2));
    // Only the stem reads the graph input; both branches read the stem.
    let fed: Vec<usize> = (0..graph.num_slots())
        .filter(|&id| graph.reads_input(id))
        .collect();
    assert_eq!(fed, vec![1]);
}

/// Overwrites the top trainable slot's parameters from inside the callback of
/// the slot below it and checks the next forward equals that of a twin whose
/// parameters were set the ordinary way.
fn assert_a_write_through_the_view_is_what_forward_reads<M: Model>(
    mut model: M,
    mut twin: M,
    x: &Matrix,
) {
    let top = *model.trainable_slots().last().expect("a trainable slot");
    let labels: Vec<usize> = (0..x.rows()).map(|i| i % 3).collect();
    let logits = model.forward(x);
    let out = SoftmaxCrossEntropy.evaluate(&logits, &labels);
    let new_params = |p: &poseidon_nn::ParamBlock| {
        let (r, c) = p.weights.shape();
        (ramp(r, c, 77), ramp(1, r, 78))
    };
    let mut wrote = false;
    model.backward_with(&out.grad, &mut |id, _, finished| {
        if id + 1 == top {
            let p = finished
                .slot_mut(top)
                .and_then(|l| l.params_mut())
                .expect("the top layer is finished and trainable");
            let (w, b) = new_params(p);
            p.set_params(&w, &b);
            wrote = true;
        }
    });
    assert!(wrote, "the slot below the top one fired");
    let p = twin
        .slot_mut(top)
        .and_then(|l| l.params_mut())
        .expect("same structure");
    let (w, b) = new_params(p);
    p.set_params(&w, &b);
    assert_eq!(bits(&model.forward(x)), bits(&twin.forward(x)));
}

#[test]
fn a_write_through_the_view_is_what_the_next_forward_reads() {
    let x = ramp(4, 6, 3);
    let mlp = || presets::mlp(&[6, 8, 5, 3], 4);
    assert_a_write_through_the_view_is_what_forward_reads(mlp(), mlp(), &x);
    let x = ramp(2, 16, 4);
    assert_a_write_through_the_view_is_what_forward_reads(branched(2), branched(2), &x);
}

/// The layer's products after one forward/backward under `needs`.
struct FcPass {
    dx: Matrix,
    dw: Matrix,
    db: Matrix,
    factors: Vec<(Vec<u32>, Vec<u32>)>,
}

fn fc_pass(needs: BackwardNeeds, x: &Matrix, g: &Matrix) -> FcPass {
    let mut fc = FullyConnected::new("fc", x.cols(), g.cols(), &mut StdRng::seed_from_u64(9));
    fc.set_backward_needs(needs);
    // A recognisable stale weight gradient: a skipped `dW` must leave it be.
    fc.params_mut().unwrap().grad_weights = Matrix::filled(g.cols(), x.cols(), 42.0);
    fc.forward(x);
    let dx = fc.backward(g);
    let p = fc.params().unwrap();
    let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    FcPass {
        dx,
        dw: p.grad_weights.clone(),
        db: p.grad_bias.clone(),
        factors: fc
            .sufficient_factors()
            .expect("an FC layer has factors")
            .factors()
            .iter()
            .map(|sf| (bits_of(&sf.u), bits_of(&sf.v)))
            .collect(),
    }
}

#[test]
fn fc_backward_skips_what_is_not_needed_and_nothing_else_moves_a_bit() {
    let mut x = ramp(5, 7, 11);
    let mut g = ramp(5, 4, 12);
    // Signed zeros, an infinity and a NaN ride along.
    x.as_mut_slice()[3] = -0.0;
    g.as_mut_slice()[6] = f32::INFINITY;
    g.as_mut_slice()[9] = f32::NAN;
    let full = fc_pass(BackwardNeeds::ALL, &x, &g);
    assert_ne!(bits(&full.dw), bits(&Matrix::filled(4, 7, 42.0)));

    let no_dx = fc_pass(
        BackwardNeeds {
            input_grad: false,
            ..BackwardNeeds::ALL
        },
        &x,
        &g,
    );
    assert_eq!(no_dx.dx.shape(), (1, 1), "a placeholder, not a gradient");
    assert_eq!(bits(&no_dx.dw), bits(&full.dw), "dW without dX");
    assert_eq!(bits(&no_dx.db), bits(&full.db), "db without dX");
    assert_eq!(no_dx.factors, full.factors, "factors without dX");

    let factors_only = fc_pass(
        BackwardNeeds {
            weight_grad: false,
            ..BackwardNeeds::ALL
        },
        &x,
        &g,
    );
    assert_eq!(bits(&factors_only.dx), bits(&full.dx), "dX without dW");
    assert_eq!(bits(&factors_only.db), bits(&full.db), "db without dW");
    assert_eq!(factors_only.factors, full.factors, "factors without dW");
    assert_eq!(
        bits(&factors_only.dw),
        bits(&Matrix::filled(4, 7, 42.0)),
        "a skipped dW leaves the gradient storage alone"
    );
}
