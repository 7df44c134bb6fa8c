//! The codec byte counters (`poseidon_codec_bytes_{pre,post}_total`) count
//! every payload the collective data path decodes, once: a ring or tree run
//! moves them by exactly what its routes make the workers read. The counters
//! are process-global, so this file holds one test.

use poseidon::config::{ClusterConfig, Codec, CodecPolicy, Partition, SchemePolicy};
use poseidon::coordinator::Coordinator;
use poseidon::route::{self, Hop, Route};
use poseidon::runtime::{train, RuntimeConfig};
use poseidon::wire::{COLLECTIVE_DISTRIBUTE, COLLECTIVE_REDUCE};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::{presets, Network};

/// Four workers: the ring has adding hops before its fold, and the tree a
/// relaying worker (3 → 1 → 0).
const WORKERS: usize = 4;
const ITERS: usize = 6;
const PARTITION: Partition = Partition::KvPairs { pair_elems: 50 };

fn model() -> Network {
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

/// Payloads one segment's round decodes across the workers: each REDUCE
/// frame where it is added, folded or gathered (a relay forwards it
/// unread), each DISTRIBUTE frame where it lands, and under a lossy codec
/// the fold point's decode of its own encoding, which it applies as every
/// other replica does.
fn decodes_per_segment(route: &Route, lossy: bool) -> u64 {
    let mut decodes = 0;
    for me in 0..WORKERS {
        let reduce = route.hop(COLLECTIVE_REDUCE, me);
        if !matches!(reduce, Some(Hop::Relay(_))) {
            let senders =
                (0..WORKERS).filter(|&o| route.sender(COLLECTIVE_REDUCE, o, me).is_some());
            decodes += senders.count() as u64;
        }
        decodes += u64::from(route.hop(COLLECTIVE_DISTRIBUTE, me).is_some());
        decodes += u64::from(lossy && matches!(reduce, Some(Hop::Fold(_) | Hop::Gather(_))));
    }
    decodes
}

#[test]
fn ring_and_tree_runs_count_every_decode_once() {
    let data = Dataset::gaussian_clusters(TensorShape::flat(8), 3, 64, 0.3, 7);
    for policy in [SchemePolicy::AlwaysRing, SchemePolicy::AlwaysTree] {
        for codec in [Codec::Identity, Codec::OneBit] {
            let what = format!("{policy:?} / {codec}");
            let coordinator = Coordinator::from_model(
                &model(),
                ClusterConfig::colocated(WORKERS, 8),
                policy,
                PARTITION,
            )
            .with_codec_policy(CodecPolicy::Always(codec));
            let lossy = codec != Codec::Identity;
            let mut per_iter = (0u64, 0u64);
            for (layer, _) in coordinator.scheme_assignment() {
                assert_eq!(coordinator.best_codec(layer), codec, "{what}");
                let route = Route::for_layer(&coordinator, layer);
                let decodes = decodes_per_segment(&route, lossy);
                let expect = 2 * WORKERS as u64 - u64::from(!lossy) - 1;
                assert_eq!(decodes, expect, "{what}: decodes per segment");
                let chunks = coordinator.chunk_table().layer_chunks(layer);
                let elems = coordinator.layers()[layer].param_elems;
                for (_, len) in route::segments(&chunks, elems) {
                    per_iter.0 += decodes * 4 * len as u64;
                    per_iter.1 += decodes * codec.payload_bytes(len) as u64;
                }
            }

            let cfg = RuntimeConfig {
                policy,
                codec: CodecPolicy::Always(codec),
                partition: PARTITION,
                ..RuntimeConfig::new(WORKERS, 8, 0.2, ITERS)
            };
            let before = codec_bytes(codec);
            train(&model, &data, None, &cfg);
            let after = codec_bytes(codec);
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (ITERS as u64 * per_iter.0, ITERS as u64 * per_iter.1),
                "{what}: codec byte counters"
            );
        }
    }
}
