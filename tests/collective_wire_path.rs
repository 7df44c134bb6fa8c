//! The collective data path touches each ring or tree byte once: the `Send`
//! writes `µ·v + scale·g` from the layer's gradient storage straight into the
//! wire buffer (or `scale·g` into a buffer kept for the hop), the hop that
//! ends a chain adds into the kept velocity while it frames it, DISTRIBUTE
//! decodes into that velocity, and the delta is applied from its segments
//! where they lie. None of that may change a single bit, allocate per step,
//! or leak a pooled lease. As in `ps_wire_path.rs`, every check is
//! differential against the slow, obviously-correct spelling — flatten,
//! scale, fold a zero-seeded vector in worker order, add the flat delta —
//! through public API only.

use poseidon::chunk::Chunk;
use poseidon::config::{CommScheme, Partition, SchemePolicy};
use poseidon::pool::BufPool;
use poseidon::runtime::{train, RuntimeConfig};
use poseidon::syncer::{
    apply_delta, flatten_grads, flatten_params, write_params_flat, SyncOutcome, Syncer,
};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::{presets, ParamBlock};
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

/// A block whose gradient holds fresh values, with signed zeros among them:
/// `0.0 + scale·(-0.0)` and `scale·(-0.0)` differ in the sign bit, and the
/// head of a fold must produce the former.
fn block_with_grads(rng: &mut Lcg) -> ParamBlock {
    let mut p = ParamBlock::new(ROWS, COLS);
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
    p
}

/// Drives `workers` collective syncers through `steps` exchanges, frames
/// delivered in send order, and checks every replica after every step
/// against the reference fold.
fn assert_collective_matches_reference(scheme: CommScheme, workers: usize, momentum: f32) {
    let what = format!("{scheme} P={workers} µ={momentum}");
    let mut rng = Lcg(0xC011 + workers as u64);
    let mut syncers: Vec<Syncer> = (0..workers)
        .map(|w| Syncer::new(0, scheme, segments(), ELEMS, workers, w).with_momentum(momentum))
        .collect();
    let init: Vec<f32> = (0..ELEMS).map(|_| rng.next_f32()).collect();
    let mut replicas: Vec<ParamBlock> = (0..workers)
        .map(|_| {
            let mut p = ParamBlock::new(ROWS, COLS);
            write_params_flat(&mut p, &init);
            p
        })
        .collect();
    let mut want_params = init;
    let mut want_velocity = vec![0.0f32; ELEMS];
    for step in 0..4 {
        let scale = -0.05 / (step + 1) as f32;
        let grads: Vec<ParamBlock> = (0..workers).map(|_| block_with_grads(&mut rng)).collect();

        // The slow spelling: the shard's fold over flat scaled gradients.
        for v in &mut want_velocity {
            *v = if momentum != 0.0 { momentum * *v } else { 0.0 };
        }
        for g in &grads {
            for (v, g) in want_velocity.iter_mut().zip(flatten_grads(g)) {
                *v += scale * g;
            }
        }
        for (p, v) in want_params.iter_mut().zip(&want_velocity) {
            *p += v;
        }

        let mut inflight = VecDeque::new();
        for (w, s) in syncers.iter_mut().enumerate() {
            s.begin_iteration();
            for send in s.send_collective(&grads[w], scale) {
                inflight.push_back((send.to_worker, w, send.route, send.data));
            }
        }
        while let Some((to, from, route, data)) = inflight.pop_front() {
            for send in syncers[to].on_collective(from, route, data).unwrap() {
                inflight.push_back((send.to_worker, to, send.route, send.data));
            }
        }
        for (w, (s, replica)) in syncers.iter_mut().zip(&mut replicas).enumerate() {
            assert!(s.is_complete(), "{what}: worker {w} stalled at step {step}");
            match s.take_outcome().expect("a collective hands back its delta") {
                SyncOutcome::ApplyDelta(segments) => apply_delta(replica, &segments),
                other => panic!("{what}: wrong outcome {other:?}"),
            }
            assert_eq!(
                bits(&flatten_params(replica)),
                bits(&want_params),
                "{what}: worker {w} after step {step}"
            );
        }
    }
}

#[test]
fn collectives_fold_from_gradient_storage_exactly_like_the_flat_reference() {
    for momentum in [0.0, 0.9] {
        for workers in [2, 3, 5] {
            assert_collective_matches_reference(CommScheme::Ring, workers, momentum);
        }
        for workers in [2, 3, 4, 7] {
            assert_collective_matches_reference(CommScheme::Tree, workers, momentum);
        }
    }
}

/// Fifty exchanges: what a syncer keeps between iterations is allocated by
/// the second one and never grows after, on every position of a ring and a
/// tree.
#[test]
fn kept_buffers_do_not_grow_with_the_step_count() {
    let _globals = exclusive();
    for scheme in [CommScheme::Ring, CommScheme::Tree] {
        let workers = 3;
        let mut rng = Lcg(0x50);
        let mut syncers: Vec<Syncer> = (0..workers)
            .map(|w| Syncer::new(0, scheme, segments(), ELEMS, workers, w).with_momentum(0.9))
            .collect();
        let mut settled: Vec<usize> = Vec::new();
        for step in 0..50 {
            let mut inflight = VecDeque::new();
            for (w, s) in syncers.iter_mut().enumerate() {
                s.begin_iteration();
                for send in s.send_collective(&block_with_grads(&mut rng), -0.01) {
                    inflight.push_back((send.to_worker, w, send.route, send.data));
                }
            }
            while let Some((to, from, route, data)) = inflight.pop_front() {
                for send in syncers[to].on_collective(from, route, data).unwrap() {
                    inflight.push_back((send.to_worker, to, send.route, send.data));
                }
            }
            let kept: Vec<usize> = syncers.iter().map(Syncer::retained_elems).collect();
            match step {
                0 => {}
                1 => settled = kept,
                _ => assert_eq!(kept, settled, "{scheme}: kept elements at step {step}"),
            }
        }
        for (w, kept) in settled.into_iter().enumerate() {
            // A velocity and at most one contribution per segment, give or
            // take the allocator's rounding of the tiny ones.
            assert!(
                (ELEMS..3 * ELEMS).contains(&kept),
                "{scheme}: worker {w} keeps {kept} elements for a layer of {ELEMS}"
            );
        }
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
