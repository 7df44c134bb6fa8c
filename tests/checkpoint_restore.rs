//! Checkpoint/restore is exact: a run killed at an iteration boundary and
//! restored from its checkpoint finishes *bitwise identical* to the
//! uninterrupted run — parameters, momentum velocity, the codec residual
//! streams and the per-iteration losses — under every synchronization
//! scheme — and a segment resumed as `run_endpoint` threads lands where
//! `train` does. The checkpoint codec itself round-trips bit-exactly and
//! rejects truncation and corruption outright.

use poseidon::checkpoint::{decode_training, encode_training};
use poseidon::config::{Codec, CodecPolicy, Partition, SchemePolicy};
use poseidon::runtime::{flatten_model_params, run_endpoint, train, NodeOutcome, RuntimeConfig};
use poseidon::transport::fabric_with_nodes;
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::Network;
use std::time::Duration;

const WORKERS: usize = 2;
const BATCH: usize = 8;
const ITERS: usize = 6;
const CUT: usize = 3;

fn dataset() -> Dataset {
    Dataset::gaussian_clusters(TensorShape::flat(12), 4, 96, 0.4, 11)
}

fn factory() -> Network {
    presets::mlp(&[12, 16, 8, 4], 7)
}

fn config(policy: SchemePolicy, codec: CodecPolicy, momentum: f32) -> RuntimeConfig {
    RuntimeConfig {
        policy,
        codec,
        momentum,
        partition: Partition::KvPairs { pair_elems: 37 },
        comm_timeout: Duration::from_secs(60),
        ..RuntimeConfig::new(WORKERS, BATCH, 0.15, ITERS)
    }
}

/// Runs `cfg` uninterrupted, then again as two generations split at `CUT`
/// with a full state export/restore between them, and asserts the final
/// replicas and the loss trajectories are bitwise equal.
fn assert_restore_is_bitwise(cfg: &RuntimeConfig, label: &str) {
    let full = train(&factory, &dataset(), None, cfg);

    let seg1 = train(
        &factory,
        &dataset(),
        None,
        &RuntimeConfig {
            iterations: CUT,
            export_state: true,
            ..cfg.clone()
        },
    );
    let ck = seg1
        .checkpoint
        .expect("export_state run must yield a checkpoint");
    assert_eq!(ck.next_iter, CUT as u64);
    assert_eq!(ck.workers.len(), WORKERS);
    assert_eq!(ck.shards.len(), WORKERS);

    // The binary codec is the kill boundary: what survives is the bytes.
    let blob = encode_training(&ck);
    let restored = decode_training(&blob).expect("own checkpoint must decode");
    assert_eq!(restored, ck, "{label}: checkpoint codec must be bit-exact");

    let seg2 = train(
        &factory,
        &dataset(),
        None,
        &RuntimeConfig {
            iterations: ITERS - CUT,
            start_iter: CUT,
            resume: Some(restored),
            ..cfg.clone()
        },
    );

    assert_eq!(
        seg2.net.max_param_diff(&full.net),
        0.0,
        "{label}: restored run must be bitwise equal to the uninterrupted run"
    );
    assert_eq!(
        flatten_model_params(&seg2.net),
        flatten_model_params(&full.net),
        "{label}: canonical flats must agree"
    );
    let stitched: Vec<f32> = seg1.losses.iter().chain(&seg2.losses).copied().collect();
    assert_eq!(
        stitched, full.losses,
        "{label}: loss trajectory must stitch bitwise across the restore"
    );
}

#[test]
fn restore_is_bitwise_under_ps() {
    assert_restore_is_bitwise(
        &config(SchemePolicy::AlwaysPs, CodecPolicy::Identity, 0.0),
        "ps",
    );
}

#[test]
fn restore_is_bitwise_under_sfb() {
    assert_restore_is_bitwise(
        &config(SchemePolicy::AlwaysSfbForFc, CodecPolicy::Identity, 0.0),
        "sfb",
    );
}

#[test]
fn restore_is_bitwise_under_ring() {
    assert_restore_is_bitwise(
        &config(SchemePolicy::AlwaysRing, CodecPolicy::Identity, 0.0),
        "ring",
    );
}

#[test]
fn restore_is_bitwise_under_tree() {
    assert_restore_is_bitwise(
        &config(SchemePolicy::AlwaysTree, CodecPolicy::Identity, 0.0),
        "tree",
    );
}

/// Momentum velocity and the 1-bit codec's error-feedback residuals are the
/// states a checkpoint most easily gets *almost* right; this run exercises
/// both through the kill boundary.
#[test]
fn restore_preserves_velocity_and_codec_residuals() {
    assert_restore_is_bitwise(
        &config(
            SchemePolicy::AlwaysPs,
            CodecPolicy::Always(Codec::OneBit),
            0.9,
        ),
        "ps+onebit+momentum",
    );
}

#[test]
fn corrupt_checkpoints_are_rejected() {
    let seg = train(
        &factory,
        &dataset(),
        None,
        &RuntimeConfig {
            iterations: CUT,
            export_state: true,
            ..config(SchemePolicy::AlwaysPs, CodecPolicy::Identity, 0.9)
        },
    );
    let blob = encode_training(&seg.checkpoint.expect("checkpoint"));
    // Every strict prefix is rejected — a torn write never half-loads.
    for cut in [0, 1, 4, blob.len() / 2, blob.len() - 1] {
        assert!(
            decode_training(&blob[..cut]).is_none(),
            "accepted a {cut}-of-{}-byte prefix",
            blob.len()
        );
    }
    // A flipped magic or version byte is rejected too.
    for byte in [0, 4] {
        let mut bad = blob.clone();
        bad[byte] ^= 0xFF;
        assert!(
            decode_training(&bad).is_none(),
            "accepted a checkpoint with byte {byte} corrupted"
        );
    }
}

/// Every worker's `(losses, replica)` from `cfg` run as `2P` `run_endpoint`
/// threads over the in-process fabric, in worker order.
fn endpoint_mesh(cfg: &RuntimeConfig) -> Vec<(Vec<f32>, Network)> {
    let nodes: Vec<usize> = (0..cfg.workers).chain(0..cfg.workers).collect();
    let (endpoints, _traffic) = fabric_with_nodes(&nodes);
    let data = &dataset();
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| s.spawn(move || run_endpoint(&factory, data, None, cfg, ep)))
            .collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join().expect("endpoint thread panicked") {
                NodeOutcome::Worker { losses, net, .. } => Some((losses, net)),
                NodeOutcome::Server { .. } => None,
            })
            .collect()
    })
}

/// `train` and `run_endpoint` run the same endpoint runner, resume included:
/// the second segment as `2P` `run_endpoint` threads, each taking its own
/// slice of the checkpoint `train` exported, finishes bitwise where the
/// uninterrupted `train` run does — momentum velocity and 1-bit residuals
/// through the boundary — and worker by worker where an uninterrupted
/// `run_endpoint` mesh does.
#[test]
fn endpoint_mesh_resumes_from_a_train_checkpoint_bitwise() {
    let cfg = config(
        SchemePolicy::AlwaysPs,
        CodecPolicy::Always(Codec::OneBit),
        0.9,
    );
    let full = train(&factory, &dataset(), None, &cfg);
    let seg1 = train(
        &factory,
        &dataset(),
        None,
        &RuntimeConfig {
            iterations: CUT,
            export_state: true,
            ..cfg.clone()
        },
    );
    let seg2 = endpoint_mesh(&RuntimeConfig {
        iterations: ITERS - CUT,
        start_iter: CUT,
        resume: seg1.checkpoint,
        ..cfg.clone()
    });
    assert_eq!(seg2.len(), WORKERS);
    for (w, (_, net)) in seg2.iter().enumerate() {
        assert_eq!(
            flatten_model_params(net),
            flatten_model_params(&full.net),
            "worker {w}: the resumed endpoint mesh must end on the uninterrupted run"
        );
    }
    let mean: Vec<f32> = (0..ITERS - CUT)
        .map(|i| seg2.iter().map(|(losses, _)| losses[i]).sum::<f32>() / WORKERS as f32)
        .collect();
    assert_eq!(mean, full.losses[CUT..], "mean loss per resumed iteration");
    let uninterrupted = endpoint_mesh(&cfg);
    for (w, ((resumed, _), (whole, _))) in seg2.iter().zip(&uninterrupted).enumerate() {
        assert_eq!(
            resumed[..],
            whole[CUT..],
            "worker {w}: losses per iteration"
        );
    }
}
