//! The parameter-server data path touches each payload byte once: codecs
//! encode in place and are consumed straight from wire bytes, shards fold
//! staged frames, workers apply chunks into the replica as they arrive.
//! None of that may change a single bit. Every check here is differential
//! against the slow, obviously-correct spelling — the scalar
//! `OneBitQuantizer`, decode-to-`Vec` then axpy, a hand-written fold — through
//! public API only.

use poseidon::chunk::Chunk;
use poseidon::config::{ClusterConfig, Codec, CodecPolicy, CommScheme, Partition, SchemePolicy};
use poseidon::coordinator::Coordinator;
use poseidon::kvstore::{ShardState, Staged, FOLD_BLOCK};
use poseidon::pool::BufPool;
use poseidon::runtime::{poisoned_frames, run_endpoint, train, NodeOutcome, RuntimeConfig};
use poseidon::syncer::{
    flatten_grads, flatten_params, reconstruct_sf_batches, write_params_flat, Syncer,
};
use poseidon::transport::{fabric_with_nodes, Message, Transport};
use poseidon::wire;
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::{presets, Model, Network, ParamBlock};
use poseidon_tensor::compress::{accumulate, decode_into, decompress, make_compressor, validate};
use poseidon_tensor::quantize::OneBitQuantizer;
use poseidon_tensor::{Matrix, SfBatch, SufficientFactor};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const ALL_CODECS: [Codec; 2] = [Codec::Identity, Codec::OneBit];

/// The process-wide buffer pool, codec byte counters and poisoned-frame
/// count are read as deltas below; every test that moves one of them takes
/// this lock so the harness's parallel test threads cannot interleave.
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

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f32()).collect()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// (a) codec plane

/// The in-place 1-bit encoder against the scalar quantizer it replaced on the
/// hot path: same payload bytes, same residual, and both receive primitives
/// reproduce the oracle's dequantisation, over five rounds of error feedback.
#[test]
fn in_place_onebit_equals_the_scalar_oracle_bit_for_bit() {
    let mut rng = Lcg(0xB17);
    for n in [1usize, 63, 64, 65, 1000, 524_288] {
        for family in ["mixed with signed zeros", "all positive", "all negative"] {
            let mut oracle = OneBitQuantizer::new(1, n);
            let mut fast = make_compressor(Codec::OneBit, n);
            for round in 0..5 {
                let mut vals = rng.vec(n);
                for (i, v) in vals.iter_mut().enumerate() {
                    match family {
                        "all positive" => *v = v.abs() + 0.25,
                        "all negative" => *v = -v.abs() - 0.25,
                        _ if i % 7 == 3 => *v = 0.0,
                        _ if i % 7 == 5 => *v = -0.0,
                        _ => {}
                    }
                }
                let what = format!("n={n} {family} round {round}");
                let enc = oracle.quantize(&Matrix::from_vec(1, n, vals.clone()));
                let payload = fast.compress(&vals);
                assert_eq!(payload, enc.to_bytes(), "payload bytes, {what}");
                assert_eq!(
                    bits(&fast.residual()),
                    bits(oracle.residual().as_slice()),
                    "residual, {what}"
                );
                let want = enc.dequantize();
                let mut got = vec![f32::NAN; n];
                decode_into(Codec::OneBit, &payload, &mut got).unwrap();
                assert_eq!(bits(&got), bits(want.as_slice()), "decode_into, {what}");
                let acc0 = rng.vec(n);
                let mut acc = acc0.clone();
                accumulate(Codec::OneBit, &payload, -0.0125, &mut acc).unwrap();
                let axpy: Vec<f32> = acc0
                    .iter()
                    .zip(want.as_slice())
                    .map(|(a, d)| a + -0.0125 * d)
                    .collect();
                assert_eq!(bits(&acc), bits(&axpy), "accumulate, {what}");
            }
        }
    }
}

/// `accumulate` is `decode_into` then an axpy, and `decode_into` is
/// `decompress` into the caller's memory, for every codec.
#[test]
fn accumulate_equals_decode_then_axpy_for_every_codec() {
    let mut rng = Lcg(0xACC);
    for codec in ALL_CODECS {
        for n in [1usize, 63, 64, 65, 1000] {
            let mut comp = make_compressor(codec, n);
            for round in 0..3 {
                let payload = comp.compress(&rng.vec(n));
                assert_eq!(payload.len(), codec.payload_bytes(n), "{codec} n={n}");
                validate(codec, &payload, n).unwrap();
                let dense = decompress(codec, &payload, n).unwrap();
                // Junk in the destination: every slot must be overwritten.
                let mut into = vec![f32::NAN; n];
                decode_into(codec, &payload, &mut into).unwrap();
                assert_eq!(bits(&into), bits(&dense), "{codec} n={n} round {round}");
                for scale in [-0.05f32, 1.0] {
                    let acc0 = rng.vec(n);
                    let mut acc = acc0.clone();
                    accumulate(codec, &payload, scale, &mut acc).unwrap();
                    let axpy: Vec<f32> = acc0
                        .iter()
                        .zip(&dense)
                        .map(|(a, d)| a + scale * d)
                        .collect();
                    assert_eq!(bits(&acc), bits(&axpy), "{codec} n={n} scale {scale}");
                }
            }
        }
    }
}

/// A payload every primitive must refuse, and leave its destination alone.
fn assert_refused(codec: Codec, payload: &[u8], n: usize, why: &str) {
    assert!(validate(codec, payload, n).is_err(), "validate: {why}");
    let mut dst = vec![7.0f32; n];
    assert!(decode_into(codec, payload, &mut dst).is_err(), "{why}");
    assert!(accumulate(codec, payload, 1.0, &mut dst).is_err(), "{why}");
    assert_eq!(dst, vec![7.0f32; n], "destination written: {why}");
}

#[test]
fn malformed_payloads_are_refused_before_anything_is_written() {
    let n = 100;
    let vals = Lcg(5).vec(n);
    for codec in ALL_CODECS {
        let good = make_compressor(codec, n).compress(&vals);
        assert_refused(codec, &good[..good.len() - 1], n, "truncated");
        assert_refused(codec, &good, n + 1, "one element too few");
        assert_refused(codec, &good, n - 1, "one element too many");
    }
}

// ---------------------------------------------------------------------------
// (b) shard fold

/// Folds `rounds` BSP rounds two ways — a [`ShardState`] staging wire frames
/// in `arrival` order, and the textbook loop over decoded vectors — and
/// demands identical masters and identical reply bytes after every round.
fn assert_wire_fold_matches_reference(p: usize, momentum: f32, codec: Codec, arrival: &[usize]) {
    let what = format!("P={p} µ={momentum} {codec} arrival {arrival:?}");
    let n = 133;
    let key = (3, 1);
    let mut rng = Lcg(0xF01D ^ p as u64);
    let init = rng.vec(n);
    let mut shard = ShardState::with_momentum(p, 0.0, momentum);
    shard.init_pair(key, init.clone());
    let (mut theta, mut v) = (init, vec![0.0f32; n]);
    let mut push: Vec<_> = (0..p).map(|_| make_compressor(codec, n)).collect();
    let mut shard_reply = make_compressor(codec, n);
    let mut ref_reply = make_compressor(codec, n);
    // The learning rate steps down before the last round.
    for (round, scale) in [-0.05f32, -0.05, -0.005].into_iter().enumerate() {
        let frames: Vec<_> = push.iter_mut().map(|c| c.compress(&rng.vec(n))).collect();

        for x in v.iter_mut() {
            *x = if momentum != 0.0 { *x * momentum } else { 0.0 };
        }
        for frame in &frames {
            let g = decompress(codec, frame, n).unwrap();
            for (x, g) in v.iter_mut().zip(&g) {
                *x += scale * g;
            }
        }
        let want_reply = if codec == Codec::Identity {
            for (t, x) in theta.iter_mut().zip(&v) {
                *t += x;
            }
            wire::encode_f32s(&theta)
        } else {
            let payload = ref_reply.compress(&v);
            let applied = decompress(codec, &payload, n).unwrap();
            for (t, d) in theta.iter_mut().zip(&applied) {
                *t += d;
            }
            payload
        };

        shard.set_update_scale(scale);
        for (seen, &w) in arrival.iter().enumerate() {
            let grad = Staged::Frame {
                codec,
                payload: frames[w].clone(),
            };
            let complete = shard.stage(w, key, grad).unwrap();
            assert_eq!(complete, seen + 1 == p, "{what}");
        }
        let delta = shard.fold(key);
        assert_eq!(bits(delta), bits(&v), "velocity, round {round}, {what}");
        let got_reply = if codec == Codec::Identity {
            wire::encode_f32s_pooled(shard.apply_velocity(key))
        } else {
            let payload = wire::encode_codec(shard_reply.as_mut(), delta);
            shard.apply_delta(key, codec, &payload);
            payload
        };
        assert_eq!(got_reply, want_reply, "reply bytes, round {round}, {what}");
        assert_eq!(
            bits(shard.pair(key).unwrap()),
            bits(&theta),
            "master, round {round}, {what}"
        );
        assert_eq!(shard.pending_count(key), 0, "{what}");
    }
}

/// One fold over gradients staged in *different* forms — identity and 1-bit
/// frames and a dense vector, rotating through the workers round by round —
/// against the textbook whole-pass loop over decoded vectors.
fn assert_mixed_fold_matches_reference(p: usize, momentum: f32, n: usize) {
    let what = format!("mixed forms, P={p} µ={momentum} n={n}");
    let forms = [
        Some(Codec::Identity),
        Some(Codec::OneBit),
        None, // Staged::Dense
    ];
    let key = (1, 0);
    let mut rng = Lcg(0x313D ^ (p as u64) << 32 ^ n as u64);
    let init = rng.vec(n);
    let mut shard = ShardState::with_momentum(p, 0.0, momentum);
    shard.init_pair(key, init.clone());
    let (mut theta, mut v) = (init, vec![0.0f32; n]);
    // One error-feedback stream per (worker, form).
    let mut push: Vec<Vec<_>> = (0..p)
        .map(|_| {
            let stream = |codec: &Option<Codec>| codec.map(|codec| make_compressor(codec, n));
            forms.iter().map(stream).collect()
        })
        .collect();
    let rounds = forms.len() + 1;
    for round in 0..rounds {
        let scale = if round + 1 == rounds {
            -0.005f32
        } else {
            -0.05
        };
        let staged: Vec<Staged> = (0..p)
            .map(|w| {
                let form = (w + round) % forms.len();
                let grad = rng.vec(n);
                match (forms[form], &mut push[w][form]) {
                    (Some(codec), Some(stream)) => Staged::Frame {
                        codec,
                        payload: stream.compress(&grad),
                    },
                    _ => Staged::Dense(grad),
                }
            })
            .collect();

        for x in v.iter_mut() {
            *x = if momentum != 0.0 { *x * momentum } else { 0.0 };
        }
        for grad in &staged {
            let g = match grad {
                Staged::Frame { codec, payload } => decompress(*codec, payload, n).unwrap(),
                Staged::Dense(g) => g.clone(),
            };
            for (x, g) in v.iter_mut().zip(&g) {
                *x += scale * g;
            }
        }
        for (t, x) in theta.iter_mut().zip(&v) {
            *t += x;
        }

        shard.set_update_scale(scale);
        for (w, grad) in staged.into_iter().enumerate().rev() {
            assert_eq!(shard.stage(w, key, grad).unwrap(), w == 0, "{what}");
        }
        assert_eq!(
            bits(shard.fold(key)),
            bits(&v),
            "velocity, round {round}, {what}"
        );
        assert_eq!(
            bits(shard.apply_velocity(key)),
            bits(&theta),
            "master, round {round}, {what}"
        );
    }
}

#[test]
fn wire_staged_fold_equals_the_reference_fold_bit_for_bit() {
    let _globals = exclusive();
    let permutations_of_three = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for codec in [Codec::Identity, Codec::OneBit] {
        for momentum in [0.0, 0.9] {
            for p in [1usize, 2, 3, 5] {
                let reversed: Vec<usize> = (0..p).rev().collect();
                assert_wire_fold_matches_reference(p, momentum, codec, &reversed);
            }
            for arrival in permutations_of_three {
                assert_wire_fold_matches_reference(3, momentum, codec, &arrival);
            }
        }
    }
    // The blocked walk: every staged form in one fold, on lengths that
    // straddle the fold block and on a default KV pair plus a ragged tail.
    for n in [FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1, 524_288 + 37] {
        for momentum in [0.0, 0.9] {
            for p in [1usize, 2, 3, 5] {
                assert_mixed_fold_matches_reference(p, momentum, n);
            }
        }
    }
}

/// The shard's identity reply as one blocked walk (`fold_apply_encode`)
/// against the three passes it fuses — `fold`, `apply_velocity`, then
/// `encode_f32s_pooled` of the master — over rounds of identity and 1-bit
/// frames mixed with `Staged::Dense`: the same reply bytes, master and
/// velocity, bit for bit, round after round.
#[test]
fn fused_identity_reply_equals_the_three_pass_reply_bit_for_bit() {
    let _globals = exclusive();
    let forms = [
        Some(Codec::Identity),
        Some(Codec::OneBit),
        None, // Staged::Dense
    ];
    let copy = |g: &Staged| match g {
        Staged::Frame { codec, payload } => Staged::Frame {
            codec: *codec,
            payload: payload.clone(),
        },
        Staged::Dense(g) => Staged::Dense(g.clone()),
    };
    let key = (2, 5);
    for n in [
        1,
        FOLD_BLOCK - 1,
        FOLD_BLOCK,
        FOLD_BLOCK + 1,
        3 * FOLD_BLOCK + 7,
    ] {
        for momentum in [0.0, 0.9] {
            for p in [1usize, 2, 3] {
                let what = format!("P={p} µ={momentum} n={n}");
                let mut rng = Lcg(0xF5ED ^ (p as u64) << 20 ^ n as u64);
                let init = rng.vec(n);
                let mut three = ShardState::with_momentum(p, 0.0, momentum);
                let mut fused = ShardState::with_momentum(p, 0.0, momentum);
                for s in [&mut three, &mut fused] {
                    s.init_pair(key, init.clone());
                }
                // One error-feedback stream per worker for its 1-bit rounds.
                let mut onebit: Vec<_> =
                    (0..p).map(|_| make_compressor(Codec::OneBit, n)).collect();
                for (round, scale) in [-0.05f32, -0.05, -0.05, -0.005].into_iter().enumerate() {
                    let grads: Vec<Staged> = (0..p)
                        .map(|w| {
                            let grad = rng.vec(n);
                            match forms[(w + round) % forms.len()] {
                                Some(Codec::OneBit) => Staged::Frame {
                                    codec: Codec::OneBit,
                                    payload: onebit[w].compress(&grad),
                                },
                                Some(codec) => Staged::Frame {
                                    codec,
                                    payload: make_compressor(codec, n).compress(&grad),
                                },
                                None => Staged::Dense(grad),
                            }
                        })
                        .collect();
                    for s in [&mut three, &mut fused] {
                        s.set_update_scale(scale);
                        for (w, g) in grads.iter().enumerate() {
                            assert_eq!(s.stage(w, key, copy(g)).unwrap(), w + 1 == p, "{what}");
                        }
                    }
                    three.fold(key);
                    let want = wire::encode_f32s_pooled(three.apply_velocity(key));
                    let got = fused.fold_apply_encode(key);
                    assert_eq!(got, want, "reply bytes, round {round}, {what}");
                    let (t3, v3) = three.export_pair(key).unwrap();
                    let (tf, vf) = fused.export_pair(key).unwrap();
                    assert_eq!(bits(&tf), bits(&t3), "master, round {round}, {what}");
                    assert_eq!(bits(&vf), bits(&v3), "velocity, round {round}, {what}");
                    assert_eq!(fused.pending_count(key), 0, "{what}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (c) worker apply and push

/// A 3×4 layer (12 weights ++ 3 biases) cut into KV pairs of five elements:
/// the last pair straddles the weights/bias boundary.
fn straddling_chunks() -> Vec<Chunk> {
    (0..3)
        .map(|i| Chunk {
            layer: 0,
            offset: 5 * i,
            len: 5,
            shard: i % 2,
        })
        .collect()
}

#[test]
fn param_chunks_land_in_the_replica_at_their_offset_in_any_order() {
    let _globals = exclusive();
    let chunks = straddling_chunks();
    let mut rng = Lcg(0xC0DE);
    for codec in [Codec::Identity, Codec::OneBit] {
        let mut syncer = Syncer::new(0, CommScheme::Ps, chunks.clone(), 15, 2, 0).with_codec(codec);
        let mut block = ParamBlock::new(3, 4);
        let mut flat = rng.vec(15);
        write_params_flat(&mut block, &flat);
        // One reply stream per chunk, as a shard keeps them.
        let mut reply: Vec<_> = chunks
            .iter()
            .map(|c| make_compressor(codec, c.len))
            .collect();
        for iter in 0..3 {
            syncer.begin_iteration();
            let update = rng.vec(15);
            // Last chunk first: the straddling one lands before the weights.
            for idx in (0..chunks.len()).rev() {
                let range = chunks[idx].range();
                let payload = reply[idx].compress(&update[range.clone()]);
                let decoded = decompress(codec, &payload, range.len()).unwrap();
                for (f, d) in flat[range].iter_mut().zip(&decoded) {
                    // Identity carries fresh parameters, lossy a delta.
                    *f = if codec == Codec::Identity { *d } else { *f + d };
                }
                assert!(!syncer.is_complete());
                syncer
                    .on_param_chunk(idx, codec, &payload, &mut block)
                    .unwrap();
            }
            assert!(syncer.is_complete());
            assert!(
                syncer.take_outcome().is_none(),
                "PS leaves nothing to apply"
            );
            assert_eq!(
                bits(&flatten_params(&block)),
                bits(&flat),
                "{codec} iteration {iter}"
            );
        }
    }
}

#[test]
fn pushes_encode_from_gradient_storage_exactly_like_the_flat_slice() {
    let _globals = exclusive();
    let chunks = straddling_chunks();
    let mut rng = Lcg(0x9AD);
    for codec in [Codec::Identity, Codec::OneBit] {
        let mk = || Syncer::new(0, CommScheme::Ps, chunks.clone(), 15, 2, 1).with_codec(codec);
        let (mut direct, mut via_flat) = (mk(), mk());
        let mut block = ParamBlock::new(3, 4);
        for iter in 0..3 {
            block.grad_weights = Matrix::from_vec(3, 4, rng.vec(12));
            block.grad_bias = Matrix::from_vec(1, 3, rng.vec(3));
            let flat = flatten_grads(&block);
            for (idx, c) in chunks.iter().enumerate() {
                assert_eq!(
                    direct.encode_push_grad(idx, &block),
                    via_flat.encode_push(idx, &flat[c.range()]),
                    "{codec} iteration {iter} chunk {idx}"
                );
            }
        }
    }
}

/// The address range of a layer's weight gradient storage.
fn grad_storage(net: &Network) -> std::ops::Range<usize> {
    let gw = net
        .slot(0)
        .and_then(|l| l.params())
        .unwrap()
        .grad_weights
        .as_slice();
    let start = gw.as_ptr() as usize;
    start..start + std::mem::size_of_val(gw)
}

/// An identity push lends the layer's weight gradient to its frames: each
/// `GradChunk` that lies in the weights is a view of the gradient storage
/// (the straddling one is encoded), every payload is the flat gradient's
/// bytes, and once the round is applied the layer holds the same storage
/// again, iteration after iteration. A frame still held when the round
/// completes keeps its storage: the layer gets a fresh buffer, and the next
/// backward leaves the held frame's bytes as they were.
#[test]
fn identity_push_frames_view_the_gradient_and_the_round_gives_it_back() {
    let _globals = exclusive();
    let chunks = straddling_chunks();
    let mut net = tiny_factory();
    let mut syncer = Syncer::new(0, CommScheme::Ps, chunks.clone(), 15, 2, 0);
    let mut rng = Lcg(0x1E4D);
    let first = grad_storage(&net);
    let mut held = None;
    for iter in 0..4u64 {
        syncer.begin_iteration();
        net.forward(&Matrix::from_vec(2, 4, rng.vec(8)));
        net.backward(&Matrix::from_vec(2, 3, rng.vec(6)));
        let storage = grad_storage(&net);
        assert_eq!(
            storage == first,
            held.is_none(),
            "iteration {iter}: the layer's own buffer, until a held frame keeps it"
        );
        let flat = flatten_grads(net.slot(0).and_then(|l| l.params()).unwrap());
        let mut frames = Vec::new();
        let layer = net.slot_mut(0).unwrap();
        syncer.send(layer, iter, 1.0, |_, msg| frames.push(msg));
        assert_eq!(frames.len(), chunks.len());
        for msg in &frames {
            let Message::GradChunk { chunk, data, .. } = msg else {
                panic!("a PS push, got {msg:?}")
            };
            let range = chunks[*chunk as usize].range();
            assert_eq!(
                data,
                &wire::encode_f32s(&flat[range.clone()]),
                "chunk {chunk}"
            );
            let at = data.as_ptr() as usize;
            let inside = storage.contains(&at) && at + data.len() <= storage.end;
            assert_eq!(inside, range.end <= 12, "iteration {iter} chunk {chunk}");
        }
        if iter == 2 {
            let Message::GradChunk { data, .. } = &frames[0] else {
                unreachable!()
            };
            held = Some((data.clone(), data.to_vec()));
        }
        drop(frames);
        // The shard's replies complete the round.
        let params = net.slot_mut(0).and_then(|l| l.params_mut()).unwrap();
        for (idx, c) in chunks.iter().enumerate() {
            let msg = Message::ParamChunk {
                iter,
                layer: 0,
                chunk: idx as u32,
                codec: Codec::Identity,
                data: wire::encode_f32s(&rng.vec(c.len)),
            };
            syncer.receive(0, msg, params, |_, _| {}).unwrap();
        }
        assert!(syncer.is_complete());
        syncer.apply(params, iter, 1.0);
        let given_back = grad_storage(&net);
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

// ---------------------------------------------------------------------------
// (d) hostile frames against a live shard

/// `batches` as the receive side used to fold them: one rank-1 sweep over
/// the whole matrix per factor, worker by worker, sample by sample.
fn rank1_reference(batches: &[SfBatch], rows: usize, cols: usize) -> (Matrix, Vec<f32>) {
    let mut grad = Matrix::zeros(rows, cols);
    let mut bias = vec![0.0f32; rows];
    for sf in batches.iter().flat_map(SfBatch::factors) {
        sf.accumulate_into(&mut grad, 1.0);
        for (b, &u) in bias.iter_mut().zip(&sf.u) {
            *b += u;
        }
    }
    (grad, bias)
}

#[test]
fn sf_reconstruction_as_one_gemm_equals_the_rank1_sweeps_bit_for_bit() {
    // Any NaN equals any NaN: the rank-1 sweep forms `(1·u)·v`, the GEMM
    // `u·v`, and a NaN's payload is not part of the contract.
    let same = |got: &[f32], want: &[f32], what: &str| {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g:?} vs {w:?}"
            );
        }
    };
    let mut rng = Lcg(0x5F);
    // Ragged against every GEMM tile, and one shape past a `KC` slab of
    // factors (300 > 256) so the fold crosses a pack boundary.
    for &(rows, cols, ref ks) in &[
        (37usize, 53usize, vec![5usize]),
        (37, 53, vec![4, 7]),
        (64, 33, vec![1, 16, 3]),
        (9, 1025, vec![16, 16]),
        (8, 40, vec![150, 150]),
    ] {
        let mut batches: Vec<SfBatch> = ks
            .iter()
            .map(|&k| {
                SfBatch::from_factors(
                    (0..k)
                        .map(|_| SufficientFactor::new(rng.vec(rows), rng.vec(cols)))
                        .collect(),
                )
            })
            .collect();
        let (want_w, want_b) = rank1_reference(&batches, rows, cols);
        let (got_w, got_b) = reconstruct_sf_batches(&batches, rows, cols);
        assert_eq!(got_w.shape(), (rows, cols));
        same(
            got_w.as_slice(),
            want_w.as_slice(),
            &format!("weights P={}", ks.len()),
        );
        assert_eq!(bits(&got_b), bits(&want_b), "bias P={}", ks.len());

        // A NaN and an infinity in one worker's factors reach exactly the
        // row and column the sweeps would have poisoned.
        let mut factors = batches[0].factors().to_vec();
        factors[0].u[rows / 2] = f32::NAN;
        factors[0].v[cols - 1] = f32::INFINITY;
        batches[0] = SfBatch::from_factors(factors);
        let (want_w, want_b) = rank1_reference(&batches, rows, cols);
        let (got_w, got_b) = reconstruct_sf_batches(&batches, rows, cols);
        assert!(want_w.row(rows / 2).iter().all(|x| x.is_nan()));
        assert!(want_w[(0, 0)].is_finite());
        same(
            got_w.as_slice(),
            want_w.as_slice(),
            "weights with a NaN factor",
        );
        same(&got_b, &want_b, "bias with a NaN factor");
    }

    // No batches, and batches that hold no factors: a zero gradient.
    for empty in [vec![], vec![SfBatch::new(), SfBatch::new()]] {
        let (w, b) = reconstruct_sf_batches(&empty, 3, 4);
        assert_eq!(w, Matrix::zeros(3, 4));
        assert_eq!(b, vec![0.0; 3]);
    }
}

fn tiny_factory() -> Network {
    presets::mlp(&[4, 3], 17)
}

fn tiny_dataset() -> Dataset {
    Dataset::gaussian_clusters(TensorShape::flat(4), 3, 16, 0.3, 5)
}

/// A real shard (`run_endpoint` on the shard's endpoint) is sent hostile
/// gradient frames by a hand-driven worker before each good one. Every bad
/// frame is dropped and counted at receipt, stages nothing, and the round
/// still completes: the reply is exactly the update from the good frame.
#[test]
fn hostile_gradient_frames_are_dropped_counted_and_stage_nothing() {
    let _globals = exclusive();
    let lr = 0.5f32;
    let cfg = RuntimeConfig {
        policy: SchemePolicy::AlwaysPs,
        partition: Partition::KvPairs { pair_elems: 8 },
        comm_timeout: Duration::from_secs(20),
        ..RuntimeConfig::new(1, 4, lr, 1)
    };
    let reference = tiny_factory();
    let coordinator = Coordinator::from_model(
        &reference,
        ClusterConfig::colocated(1, cfg.batch_per_worker),
        cfg.policy,
        cfg.partition,
    );
    let layer = 0usize;
    let chunks = coordinator.chunk_table().layer_chunks(layer);
    assert_eq!(chunks.len(), 2, "15 parameters in pairs of 8");
    let init = flatten_params(reference.slot(layer).and_then(|l| l.params()).unwrap());

    let (mut endpoints, _traffic) = fabric_with_nodes(&[0, 0]);
    let shard_ep = endpoints.pop().unwrap();
    let mut worker_ep = endpoints.pop().unwrap();
    let before = poisoned_frames();
    let mut hostile_sent = 0;
    std::thread::scope(|scope| {
        let data = tiny_dataset();
        let cfg = &cfg;
        let shard = scope.spawn(move || run_endpoint(&tiny_factory, &data, None, cfg, shard_ep));
        let mut rng = Lcg(0xBAD);
        for (idx, chunk) in chunks.iter().enumerate() {
            let n = chunk.len;
            let grad = rng.vec(n);
            let good = wire::encode_f32s(&grad);
            let onebit = make_compressor(Codec::OneBit, n).compress(&grad);
            let hostile = vec![
                (Codec::Identity, good.slice(..good.len() - 1)),
                (Codec::Identity, wire::encode_f32s(&rng.vec(n + 1))),
                (Codec::OneBit, onebit.slice(..onebit.len() - 8)),
            ];
            for (codec, data) in hostile.into_iter().chain([(Codec::Identity, good)]) {
                let msg = Message::GradChunk {
                    iter: 0,
                    layer: layer as u32,
                    chunk: idx as u32,
                    codec,
                    data,
                };
                worker_ep.send(1, msg).unwrap();
                hostile_sent += 1;
            }
            hostile_sent -= 1; // the last one was the good frame
            let reply = worker_ep.recv_timeout(Duration::from_secs(20)).unwrap();
            let Message::ParamChunk {
                chunk: got_idx,
                codec,
                data,
                ..
            } = reply.msg
            else {
                panic!("expected fresh parameters, got {:?}", reply.msg)
            };
            assert_eq!((got_idx as usize, codec), (idx, Codec::Identity));
            let want: Vec<f32> = init[chunk.range()]
                .iter()
                .zip(&grad)
                .map(|(t, g)| {
                    let v = 0.0f32 + -lr * g;
                    t + v
                })
                .collect();
            assert_eq!(
                bits(&wire::decode_f32s(&data).unwrap()),
                bits(&want),
                "chunk {idx}: only the good frame may have been folded"
            );
        }
        worker_ep.shutdown().unwrap();
        let outcome = shard
            .join()
            .expect("the shard survives every hostile frame");
        assert!(matches!(outcome, NodeOutcome::Server { .. }));
    });
    assert_eq!(
        poisoned_frames() - before,
        hostile_sent,
        "every hostile frame is counted, and only those"
    );
}

// ---------------------------------------------------------------------------
// (e) steady state

fn small_factory() -> Network {
    presets::mlp(&[8, 12, 3], 99)
}

fn codec_bytes(codec: Codec) -> (u64, u64) {
    let label = codec.to_string();
    let snap = poseidon::metrics::snapshot();
    let read = |name: &str| snap.value(name, &[("codec", label.as_str())]).unwrap_or(0);
    (
        read("poseidon_codec_bytes_pre_total"),
        read("poseidon_codec_bytes_post_total"),
    )
}

/// After a warm-up run, twenty more in-process iterations lease every wire
/// buffer from the pool (no miss) and move the codec byte counters by exactly
/// what the protocol decodes: per KV pair and iteration, `P` gradient frames
/// folded by the shard, `P` replies applied by the workers, plus the shard's
/// own reply under a lossy codec.
#[test]
fn steady_state_leases_only_recycled_buffers_and_counts_exact_bytes() {
    let _globals = exclusive();
    let p = 2usize;
    let data = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 64, 0.3, 7);
    for codec in [Codec::Identity, Codec::OneBit] {
        let cfg = |iterations| RuntimeConfig {
            policy: SchemePolicy::AlwaysPs,
            codec: CodecPolicy::Always(codec),
            partition: Partition::KvPairs { pair_elems: 50 },
            ..RuntimeConfig::new(p, 8, 0.2, iterations)
        };
        let coordinator = Coordinator::from_model(
            &small_factory(),
            ClusterConfig::colocated(p, 8),
            SchemePolicy::AlwaysPs,
            Partition::KvPairs { pair_elems: 50 },
        );
        let per_iter: (u64, u64) = coordinator
            .scheme_assignment()
            .iter()
            .flat_map(|&(l, _)| coordinator.chunk_table().layer_chunks(l))
            .map(|c| {
                let decodes = (2 * p + usize::from(codec != Codec::Identity)) as u64;
                (
                    decodes * 4 * c.len as u64,
                    decodes * codec.payload_bytes(c.len) as u64,
                )
            })
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

        train(&small_factory, &data, None, &cfg(5));
        // Every lease here is in the smallest size class. The warm-up left
        // the pool as many buffers as it happened to hold at once; top it up
        // so no rarer interleaving of the four threads can need one more,
        // while a leak of one buffer per lease would still drain it.
        drop(
            (0..24)
                .map(|_| BufPool::global().get(64))
                .collect::<Vec<_>>(),
        );
        let misses = BufPool::global().stats().misses;
        let before = codec_bytes(codec);
        train(&small_factory, &data, None, &cfg(20));
        let after = codec_bytes(codec);
        assert_eq!(
            BufPool::global().stats().misses,
            misses,
            "{codec}: a steady-state lease missed the pool"
        );
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (20 * per_iter.0, 20 * per_iter.1),
            "{codec}: codec byte counters"
        );
    }
}

/// The shard sends a lossy reply before it advances its own master by the
/// decoded bytes. Twenty rounds of 1-bit PS with momentum later, every KV
/// pair's master is still bit for bit the slice of every worker's replica it
/// serves.
#[test]
fn lossy_master_and_every_replica_stay_in_lockstep() {
    let _globals = exclusive();
    let p = 2usize;
    let partition = Partition::KvPairs { pair_elems: 50 };
    let data = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 64, 0.3, 7);
    let cfg = RuntimeConfig {
        policy: SchemePolicy::AlwaysPs,
        codec: CodecPolicy::Always(Codec::OneBit),
        partition,
        momentum: 0.9,
        export_state: true,
        ..RuntimeConfig::new(p, 8, 0.2, 20)
    };
    let state = train(&small_factory, &data, None, &cfg)
        .checkpoint
        .expect("export_state run yields a checkpoint");
    let coordinator = Coordinator::from_model(
        &small_factory(),
        ClusterConfig::colocated(p, 8),
        SchemePolicy::AlwaysPs,
        partition,
    );
    let mut pairs = 0;
    for pair in state.shards.iter().flat_map(|shard| &shard.pairs) {
        let (layer, chunk) = pair.key;
        let range = coordinator.chunk_table().layer_chunks(layer as usize)[chunk as usize].range();
        assert!(!pair.residual.is_empty(), "the reply stream carried state");
        for worker in &state.workers {
            let replica = worker
                .layers
                .iter()
                .find(|l| l.layer == layer)
                .expect("every worker holds every trainable layer");
            assert_eq!(
                bits(&replica.params[range.clone()]),
                bits(&pair.params),
                "pair {:?} on worker {}",
                pair.key,
                worker.worker
            );
        }
        pairs += 1;
    }
    assert!(pairs > 2, "several pairs per layer were checked");
}
