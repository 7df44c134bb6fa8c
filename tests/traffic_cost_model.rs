//! The headline systems claim of Table 1, verified end to end: the bytes the
//! threaded runtime actually moves across its transport equal the analytic
//! cost model's predictions. Since PR 3 the counted bytes are the *encoded
//! frame lengths* ([`poseidon::wire`]) — the same buffers the TCP transport
//! writes to its sockets — so this also pins the wire format's overhead.

use poseidon::config::{ClusterConfig, Codec, CodecPolicy, Partition, SchemePolicy};
use poseidon::costmodel;
use poseidon::runtime::{train, RuntimeConfig};
use poseidon::transport::Message;
use poseidon::wire::{encode_frame, FRAME_HEADER_BYTES};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_tensor::bytesio;

const IN: usize = 30;
const HID: usize = 40;
const OUT: usize = 6;
const WORKERS: usize = 4;
const BATCH: usize = 8;
const ITERS: usize = 3;
const PAIR: usize = 64;
const HDR: u64 = FRAME_HEADER_BYTES as u64;

fn run(policy: SchemePolicy) -> poseidon::runtime::TrainResult<poseidon_nn::Network> {
    let data = Dataset::gaussian_clusters(TensorShape::flat(IN), OUT, 64, 0.4, 3);
    let cfg = RuntimeConfig {
        policy,
        partition: Partition::KvPairs { pair_elems: PAIR },
        ..RuntimeConfig::new(WORKERS, BATCH, 0.1, ITERS)
    };
    train(&|| presets::mlp(&[IN, HID, OUT], 4), &data, None, &cfg)
}

/// Chunk count for `elems` parameters at the configured KV-pair size.
fn chunks(elems: usize) -> u64 {
    elems.div_ceil(PAIR) as u64
}

/// Layer parameter counts (weights + bias).
const LAYER_ELEMS: [usize; 2] = [HID * IN + HID, OUT * HID + OUT];

/// One copy of every layer's KV-chunk frames: a header and the chunk's f32s
/// each.
fn one_copy_of_every_chunk() -> u64 {
    LAYER_ELEMS
        .iter()
        .map(|&elems| elems as u64 * 4 + chunks(elems) * HDR)
        .sum()
}

/// The accounting must be frame-derived: a message's `wire_bytes()` is
/// exactly the length of its encoded frame, no parallel formula to drift.
#[test]
fn wire_bytes_equals_encoded_frame_length() {
    let msg = Message::GradChunk {
        iter: 5,
        layer: 1,
        chunk: 0,
        codec: poseidon::wire::Codec::Identity,
        data: poseidon::wire::encode_f32s(&vec![0.0f32; PAIR]),
    };
    assert_eq!(msg.wire_bytes(), encode_frame(&msg).len() as u64);
    assert_eq!(msg.wire_bytes(), HDR + (PAIR as u64) * 4);
}

#[test]
fn ps_traffic_matches_exact_message_accounting() {
    let result = run(SchemePolicy::AlwaysPs);
    // Every chunk is pushed by P workers and pulled to P workers; the owning
    // shard is colocated with one worker, so P-1 of each cross the network.
    let expect = 2 * (WORKERS as u64 - 1) * one_copy_of_every_chunk() * ITERS as u64;
    assert_eq!(
        result.traffic.total_bytes(),
        expect,
        "measured PS bytes differ from the exact per-frame accounting"
    );
}

/// A collective layer's segments are its KV chunks, and every hop moves one
/// segment's frame between two workers on different nodes.
#[test]
fn ring_traffic_matches_exact_message_accounting() {
    let result = run(SchemePolicy::AlwaysRing);
    // Each segment's REDUCE frame walks the P-1 links of the chain, and the
    // folded DISTRIBUTE frame walks P-1 more to reach every other worker.
    let hops = 2 * (WORKERS as u64 - 1);
    assert_eq!(
        result.traffic.total_bytes(),
        hops * one_copy_of_every_chunk() * ITERS as u64,
        "measured ring bytes differ from the exact per-frame accounting"
    );
}

#[test]
fn ps_traffic_matches_table1_formula_asymptotically() {
    // Table 1 says a colocated node carries 2·M·N·(P1+P2-2)/P2 values per FC
    // layer. The runtime additionally ships the bias vector (modelled here by
    // extending N by one column) and 32-byte frame headers (~13% at this
    // deliberately tiny KV-pair size; negligible at the real 2 MB pairs), so
    // allow a 15% envelope.
    let result = run(SchemePolicy::AlwaysPs);
    let cluster = ClusterConfig::colocated(WORKERS, BATCH);
    let analytic_values = costmodel::ps_cost(HID, IN + 1, &cluster).server_and_worker
        + costmodel::ps_cost(OUT, HID + 1, &cluster).server_and_worker;
    let analytic_bytes = analytic_values * 4.0 * ITERS as f64;
    let measured: f64 = result
        .traffic
        .per_node_totals()
        .iter()
        .map(|&b| b as f64)
        .sum::<f64>()
        / WORKERS as f64;
    let rel = (measured - analytic_bytes).abs() / analytic_bytes;
    assert!(
        rel < 0.15,
        "per-node PS traffic {measured} vs Table 1 {analytic_bytes} ({:.1}% off)",
        rel * 100.0
    );
}

#[test]
fn sfb_traffic_matches_exact_message_accounting() {
    let result = run(SchemePolicy::AlwaysSfbForFc);
    // Every FC layer: each worker broadcasts one SF batch to P-1 peers.
    let mut expect = 0u64;
    for (m, n) in [(HID, IN), (OUT, HID)] {
        let payload = bytesio::sf_batch_wire_bytes(BATCH, m, n) as u64 + HDR;
        expect += WORKERS as u64 * (WORKERS as u64 - 1) * payload;
    }
    expect *= ITERS as u64;
    assert_eq!(
        result.traffic.total_bytes(),
        expect,
        "measured SFB bytes differ from the exact per-frame accounting"
    );
}

#[test]
fn sfb_traffic_matches_table1_formula() {
    let result = run(SchemePolicy::AlwaysSfbForFc);
    let cluster = ClusterConfig::colocated(WORKERS, BATCH);
    // Table 1: per-node 2K(P1-1)(M+N) values per layer. Frame + SF-batch
    // headers add ~2% at these tiny layers.
    let analytic_values =
        costmodel::sfb_cost(HID, IN, &cluster) + costmodel::sfb_cost(OUT, HID, &cluster);
    let analytic_bytes = analytic_values * 4.0 * ITERS as f64;
    let measured: f64 = result
        .traffic
        .per_node_totals()
        .iter()
        .map(|&b| b as f64)
        .sum::<f64>()
        / WORKERS as f64;
    let rel = (measured - analytic_bytes).abs() / analytic_bytes;
    assert!(
        rel < 0.03,
        "per-node SFB traffic {measured} vs Table 1 {analytic_bytes} ({:.1}% off)",
        rel * 100.0
    );
}

#[test]
fn ps_traffic_is_balanced_across_nodes() {
    let result = run(SchemePolicy::AlwaysPs);
    let totals = result.traffic.per_node_totals();
    let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
    for (node, &b) in totals.iter().enumerate() {
        assert!(
            (b as f64 - mean).abs() / mean < 0.35,
            "node {node} carries {b} bytes vs mean {mean} — KV pairs should balance"
        );
    }
}

/// One deterministic PS training run per codec (Figure 11 territory) on a
/// larger model than the accounting tests above, so chunk headers do not
/// swamp the payloads a codec shrinks. Returns `(total wire bytes, losses)`.
fn run_codec(codec: Codec) -> (u64, Vec<f32>) {
    let data = Dataset::gaussian_clusters(TensorShape::flat(24), 6, 192, 0.35, 11);
    let cfg = RuntimeConfig {
        policy: SchemePolicy::AlwaysPs,
        codec: CodecPolicy::Always(codec),
        partition: Partition::KvPairs { pair_elems: 256 },
        ..RuntimeConfig::new(3, 8, 0.15, 12)
    };
    let result = train(&|| presets::mlp(&[24, 64, 48, 6], 9), &data, None, &cfg);
    (result.traffic.total_bytes(), result.losses)
}

/// Every lossy codec must pay for its bytes with convergence intact: runs
/// repeat exactly, every loss curve descends and lands near the dense final,
/// and every lossy codec moves under 3/4 of the dense bytes (more means
/// headers swamp payloads, a codec fell back to dense, or frames ship twice).
#[test]
fn lossy_codecs_move_fewer_bytes_and_still_converge() {
    let mut dense = None;
    for codec in [Codec::Identity, Codec::OneBit] {
        let (bytes, losses) = run_codec(codec);
        assert_eq!(
            run_codec(codec),
            (bytes, losses.clone()),
            "{codec}: bytes or losses varied across repeats"
        );
        let (first, last) = (losses[0], *losses.last().expect("one iteration at least"));
        assert!(
            last.is_finite() && last < first,
            "{codec} diverged (loss {first} -> {last})"
        );
        let (dense_bytes, dense_final) = *dense.get_or_insert((bytes, last));
        assert!(
            last <= dense_final * 2.0 + 1e-3,
            "{codec} lost convergence parity (final {last} vs dense {dense_final})"
        );
        let ratio = bytes as f64 / dense_bytes as f64;
        if codec != Codec::Identity {
            assert!(ratio < 0.75, "{codec} moves {ratio:.4} of the dense bytes");
        }
        // 1 bit per element vs 32, but each KV chunk keeps its frame header
        // and adds the quantizer's, so the ratio is far from 1/32.
        if codec == Codec::OneBit {
            assert!(ratio < 0.25, "1-bit moves {ratio:.4} of the dense bytes");
        }
    }
}
