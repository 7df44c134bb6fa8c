//! The collective data path touches each ring byte as few times as
//! the fold allows: the ring's head lends its raw gradient to its REDUCE
//! frames, the hop after it seeds the fold from that gradient, every hop
//! reads `scale·g` straight from gradient storage, the hop that ends the
//! chain folds, frames and steps its replica in one pass, and every replica
//! steps from the DISTRIBUTE frame and keeps it as the velocity. None of
//! that may change a single bit, allocate per step, or leak a pooled lease.
//! As in `ps_wire_path.rs`, every check is differential against the slow,
//! obviously-correct spelling — flatten, scale, fold a zero-seeded vector in
//! worker order, add the flat delta — through public API only, driving each
//! syncer through the calls the worker makes: `send`, `receive`, `apply`.

use poseidon::chunk::Chunk;
use poseidon::config::{CommScheme, Partition, SchemePolicy};
use poseidon::pool::BufPool;
use poseidon::runtime::{train, RuntimeConfig};
use poseidon::syncer::{flatten_grads, flatten_params, write_params_flat, Dest, Syncer};
use poseidon::transport::Message;
use poseidon::wire;
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::{presets, Model, Network, ParamBlock};
use poseidon_tensor::Matrix;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// The process-wide buffer pool is read as a delta below; every test that
/// leases from it takes this lock so the harness's parallel test threads
/// cannot interleave.
fn exclusive() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    GLOBALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic values in roughly ±2, no dependency on an RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next_f32(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 40) as i32 - (1 << 23)) as f32 / (1 << 22) as f32
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const ROWS: usize = 3;
const COLS: usize = 5;
const ELEMS: usize = ROWS * COLS + ROWS;

/// Segments of a 3 × 5 layer (15 weights ++ 3 biases): the second straddles
/// the weights/bias boundary.
fn segments() -> Vec<Chunk> {
    [(0, 7), (7, 10), (17, 1)]
        .into_iter()
        .enumerate()
        .map(|(idx, (offset, len))| Chunk {
            layer: 0,
            offset,
            len,
            shard: idx % 2,
        })
        .collect()
}

/// One worker's replica: a single 5 → 3 FC layer.
fn replica(init: &[f32]) -> Network {
    let mut net = presets::mlp(&[COLS, ROWS], 1);
    write_params_flat(params(&mut net), init);
    net
}

fn params(net: &mut Network) -> &mut ParamBlock {
    net.slot_mut(0).and_then(|l| l.params_mut()).unwrap()
}

/// Writes fresh gradient values, with signed zeros among them, over the
/// layer's gradient storage: `0.0 + scale·(-0.0)` and `scale·(-0.0)` differ
/// in the sign bit, and the head of a fold must produce the former.
fn fill_grads(p: &mut ParamBlock, rng: &mut Lcg) {
    let mut fill = |m: &mut Matrix| {
        for (i, g) in m.as_mut_slice().iter_mut().enumerate() {
            *g = match i % 5 {
                1 => 0.0,
                3 => -0.0,
                _ => rng.next_f32(),
            };
        }
    };
    fill(&mut p.grad_weights);
    fill(&mut p.grad_bias);
}

/// A frame in flight: `(from, to, message)`.
type Frame = (usize, usize, Message);

/// One round of iteration `iter` through the worker's calls in the
/// worker's order: every layer's `Send`, then every frame in send order
/// through `receive`, and `apply` the moment a syncer completes. `watch`
/// sees every frame just before its receiver takes it, and the receiver's
/// syncer just after.
fn round(
    syncers: &mut [Syncer],
    nets: &mut [Network],
    iter: u64,
    scale: f32,
    mut watch: impl FnMut(&Frame, &Syncer),
) {
    let mut inflight: VecDeque<Frame> = VecDeque::new();
    let to_worker = |to| match to {
        Dest::Worker(w) => w,
        Dest::Shard(s) => panic!("a collective frame addressed to shard {s}"),
    };
    for (w, (s, net)) in syncers.iter_mut().zip(nets.iter_mut()).enumerate() {
        s.begin_iteration();
        let layer = net.slot_mut(0).unwrap();
        s.send(layer, iter, scale, |to, msg| {
            inflight.push_back((w, to_worker(to), msg))
        });
    }
    while let Some(frame) = inflight.pop_front() {
        let (from, to, msg) = (frame.0, frame.1, frame.2.clone());
        let (s, p) = (&mut syncers[to], params(&mut nets[to]));
        let emit = |next, msg| inflight.push_back((to, to_worker(next), msg));
        s.receive(from, msg, p, emit).unwrap();
        watch(&frame, s);
        drop(frame);
        if s.is_complete() {
            s.apply(p, iter, scale);
        }
    }
    assert!(
        syncers.iter().all(Syncer::is_complete),
        "an exchange stalled"
    );
}

/// Drives `workers` ring syncers through four exchanges, frames
/// delivered in send order, and checks every replica after every step
/// against the reference fold.
fn assert_ring_matches_reference(workers: usize, momentum: f32) {
    let what = format!("P={workers} µ={momentum}");
    let mut rng = Lcg(0xC011 + workers as u64);
    let mut syncers: Vec<Syncer> = (0..workers)
        .map(|w| {
            Syncer::new(0, CommScheme::Ring, segments(), ELEMS, workers, w).with_momentum(momentum)
        })
        .collect();
    let init: Vec<f32> = (0..ELEMS).map(|_| rng.next_f32()).collect();
    let mut nets: Vec<Network> = (0..workers).map(|_| replica(&init)).collect();
    let mut want_params = init;
    let mut want_velocity = vec![0.0f32; ELEMS];
    for step in 0..4 {
        let scale = -0.05 / (step + 1) as f32;
        for net in &mut nets {
            fill_grads(params(net), &mut rng);
        }

        // The slow spelling: the shard's fold over flat scaled gradients.
        for v in &mut want_velocity {
            *v = if momentum != 0.0 { momentum * *v } else { 0.0 };
        }
        for net in &mut nets {
            for (v, g) in want_velocity.iter_mut().zip(flatten_grads(params(net))) {
                *v += scale * g;
            }
        }
        for (p, v) in want_params.iter_mut().zip(&want_velocity) {
            *p += v;
        }

        round(&mut syncers, &mut nets, step as u64, scale, |_, _| {});
        for (w, (s, net)) in syncers.iter().zip(&mut nets).enumerate() {
            assert_eq!(
                bits(&flatten_params(params(net))),
                bits(&want_params),
                "{what}: worker {w} after step {step}"
            );
            // The velocity itself, not only the step it made: a fold head of
            // `c` instead of `0.0 + c` differs only in the sign of a zero.
            let kept: Vec<u8> = (0..segments().len())
                .flat_map(|seg| s.kept_velocity(seg).expect("a fold ran").to_vec())
                .collect();
            assert_eq!(
                kept,
                wire::encode_f32s(&want_velocity).to_vec(),
                "{what}: worker {w}'s velocity after step {step}"
            );
        }
    }
}

#[test]
fn collectives_fold_from_gradient_storage_exactly_like_the_flat_reference() {
    for momentum in [0.0, 0.9] {
        for workers in [2, 3, 5] {
            assert_ring_matches_reference(workers, momentum);
        }
    }
}

/// The address range of a layer's weight gradient storage.
fn grad_storage(net: &mut Network) -> std::ops::Range<usize> {
    let gw = params(net).grad_weights.as_slice();
    let start = gw.as_ptr() as usize;
    start..start + std::mem::size_of_val(gw)
}

/// The ring's head lends its weight gradient to its REDUCE frames: each
/// segment that lies in the weights is a view of the gradient storage (the
/// others are encoded), every payload is the raw flat gradient's bytes, and
/// once the round is in the layer holds the same storage again, iteration
/// after iteration. A frame still held then keeps its storage: the layer
/// gets a fresh buffer, and the next round leaves the held frame's bytes as
/// they were. Every replica keeps the DISTRIBUTE frame itself as the
/// segment's velocity: the last hop the frame it sends, the others the
/// frame they receive.
#[test]
fn ring_head_frames_view_the_gradient_and_replicas_keep_the_distribute_frame() {
    let _globals = exclusive();
    let mut rng = Lcg(0x21E4D);
    let mut syncers: Vec<Syncer> = (0..2)
        .map(|w| Syncer::new(0, CommScheme::Ring, segments(), ELEMS, 2, w).with_momentum(0.9))
        .collect();
    let init: Vec<f32> = (0..ELEMS).map(|_| rng.next_f32()).collect();
    let mut nets: Vec<Network> = (0..2).map(|_| replica(&init)).collect();
    let first = grad_storage(&mut nets[0]);
    let mut held = None;
    for iter in 0..4u64 {
        for net in &mut nets {
            fill_grads(params(net), &mut rng);
        }
        let storage = grad_storage(&mut nets[0]);
        assert_eq!(
            storage == first,
            held.is_none(),
            "iteration {iter}: the layer's own buffer, until a held frame keeps it"
        );
        let flat = flatten_grads(params(&mut nets[0]));
        let (mut reduces, mut distributes) = (0, 0);
        round(&mut syncers, &mut nets, iter, -0.05, |(from, _, msg), s| {
            let Message::Collective { route, data, .. } = msg else {
                panic!("a collective frame, got {msg:?}")
            };
            let (phase, _, seg) = wire::unpack_collective(*route);
            if phase == wire::COLLECTIVE_REDUCE {
                reduces += 1;
                let range = segments()[seg].range();
                assert_eq!(
                    data,
                    &wire::encode_f32s(&flat[range.clone()]),
                    "segment {seg}: the head's raw gradient"
                );
                let at = data.as_ptr() as usize;
                let inside = storage.contains(&at) && at + data.len() <= storage.end;
                assert_eq!(inside, range.end <= 15, "iteration {iter} segment {seg}");
                if iter == 2 && seg == 0 {
                    held = Some((data.clone(), data.to_vec()));
                }
            } else {
                distributes += 1;
                assert_eq!(*from, 1, "the last hop originates DISTRIBUTE");
                let kept = s.kept_velocity(seg).expect("kept");
                assert_eq!(kept.as_ptr(), data.as_ptr(), "segment {seg}: kept as is");
                assert_eq!(kept.len(), data.len());
            }
        });
        assert_eq!((reduces, distributes), (3, 3));
        // Both replicas keep the same bytes: the frame the last hop sent.
        for seg in 0..3 {
            let kept: Vec<_> = syncers.iter().map(|s| s.kept_velocity(seg)).collect();
            assert_eq!(kept[0].unwrap().as_ptr(), kept[1].unwrap().as_ptr());
        }
        let given_back = grad_storage(&mut nets[0]);
        assert_eq!(
            given_back == storage,
            iter != 2,
            "iteration {iter}: the buffer comes back unless a frame holds it"
        );
    }
    let (frame, bytes) = held.expect("a frame was held");
    assert_eq!(
        frame.to_vec(),
        bytes,
        "the held frame's bytes did not change"
    );
}

/// Fifty exchanges: what a syncer keeps between iterations is allocated by
/// the second one and never grows after, on every position of a ring.
#[test]
fn kept_buffers_do_not_grow_with_the_step_count() {
    let _globals = exclusive();
    let workers = 3;
    let mut rng = Lcg(0x50);
    let mut syncers: Vec<Syncer> = (0..workers)
        .map(|w| Syncer::new(0, CommScheme::Ring, segments(), ELEMS, workers, w).with_momentum(0.9))
        .collect();
    let mut nets: Vec<Network> = (0..workers).map(|_| replica(&[0.0; ELEMS])).collect();
    let mut settled: Vec<usize> = Vec::new();
    for step in 0..50 {
        for net in &mut nets {
            fill_grads(params(net), &mut rng);
        }
        round(&mut syncers, &mut nets, step, -0.01, |_, _| {});
        let kept: Vec<usize> = syncers.iter().map(Syncer::retained_elems).collect();
        match step {
            0 => {}
            1 => settled = kept,
            _ => assert_eq!(kept, settled, "kept elements at step {step}"),
        }
    }
    for (w, kept) in settled.into_iter().enumerate() {
        // A velocity frame per segment, and any staging scratch.
        assert!(
            (ELEMS..3 * ELEMS).contains(&kept),
            "worker {w} keeps {kept} elements for a layer of {ELEMS}"
        );
    }
}

/// After a warm-up run, fifty more ring iterations over the in-process
/// fabric lease every wire buffer from the pool: a lease that was not
/// returned would have to be replaced by a fresh allocation.
#[test]
fn steady_state_ring_leases_only_recycled_buffers() {
    let _globals = exclusive();
    let factory = || presets::mlp(&[8, 12, 3], 99);
    let data = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 64, 0.3, 7);
    let cfg = |iterations| RuntimeConfig {
        policy: SchemePolicy::AlwaysRing,
        momentum: 0.9,
        partition: Partition::KvPairs { pair_elems: 50 },
        ..RuntimeConfig::new(2, 8, 0.2, iterations)
    };
    train(&factory, &data, None, &cfg(5));
    // Every lease here is in the smallest size class. The warm-up left the
    // pool as many buffers as it happened to hold at once; top it up so no
    // rarer interleaving of the threads can need one more, while a leak of
    // one buffer per lease would still drain it.
    drop(
        (0..24)
            .map(|_| BufPool::global().get(64))
            .collect::<Vec<_>>(),
    );
    let misses = BufPool::global().stats().misses;
    train(&factory, &data, None, &cfg(50));
    assert_eq!(
        BufPool::global().stats().misses,
        misses,
        "a steady-state lease missed the pool"
    );
}
