//! Pins telemetry's core contract: recording is an *observer*. The same
//! training configuration run with telemetry off, telemetry on, and
//! telemetry off again (with the nn probe hook now installed — the state a
//! long-lived process is in after one traced run) produces bitwise-identical
//! replicas and identical counted traffic, while the traced run yields a
//! well-formed event stream that round-trips through the Chrome exporter.
//!
//! Telemetry state is process-global, so the three runs live in ONE `#[test]`
//! in their own integration-test binary — `cargo test`'s in-binary thread
//! pool cannot interleave a second enable/drain.

use poseidon::config::{Partition, SchemePolicy};
use poseidon::runtime::{flatten_model_params, train, RuntimeConfig, TrainResult};
use poseidon::telemetry::{chrome, EventKind, TelemetryConfig, Trace};
use poseidon_nn::data::Dataset;
use poseidon_nn::layer::TensorShape;
use poseidon_nn::presets;
use poseidon_nn::Network;
use std::time::Duration;

const WORKERS: usize = 2;
const ITERS: usize = 4;
const BATCH: usize = 8;
const LR: f32 = 0.2;
const SEED: u64 = 11;
const LAYERS: [usize; 4] = [12, 16, 8, 4];

fn run(telemetry_on: bool) -> TrainResult<Network> {
    let data = Dataset::gaussian_clusters(
        TensorShape::flat(LAYERS[0]),
        *LAYERS.last().unwrap(),
        96,
        0.3,
        SEED + 1,
    );
    let cfg = RuntimeConfig {
        policy: SchemePolicy::Hybrid,
        partition: Partition::KvPairs { pair_elems: 37 },
        comm_timeout: Duration::from_secs(60),
        telemetry: if telemetry_on {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::default()
        },
        ..RuntimeConfig::new(WORKERS, BATCH, LR, ITERS)
    };
    train(&|| presets::mlp(&LAYERS, SEED), &data, None, &cfg)
}

fn span_count(trace: &Trace, track: &str, name: &str) -> (usize, usize) {
    let track = trace
        .tracks
        .iter()
        .find(|t| t.name == track)
        .unwrap_or_else(|| panic!("no track named {track:?}"));
    let count = |kind: EventKind| {
        track
            .events
            .iter()
            .filter(|e| e.name == name && e.kind == kind)
            .count()
    };
    (count(EventKind::Begin), count(EventKind::End))
}

#[test]
fn telemetry_is_a_pure_observer() {
    let off = run(false);
    let on = run(true);
    // A long-lived process keeps the nn probe hook installed after its first
    // traced run; the disabled branch must still be invisible.
    let off_again = run(false);

    let want = flatten_model_params(&off.net);
    assert_eq!(
        flatten_model_params(&on.net),
        want,
        "telemetry on changed the trained replica"
    );
    assert_eq!(
        flatten_model_params(&off_again.net),
        want,
        "a previously-traced process trains differently with telemetry off"
    );
    assert_eq!(off.traffic.snapshot(), on.traffic.snapshot());
    assert!(off.trace.is_none() && off_again.trace.is_none());

    // The traced run recorded the full WFBP story on every worker and shard.
    let trace = on.trace.expect("enabled run returns a trace");
    for w in 0..WORKERS {
        let name = format!("worker {w}");
        let (ib, ie) = span_count(&trace, &name, "iter");
        assert_eq!((ib, ie), (ITERS, ITERS), "{name}: one iter span per iter");
        let (sb, se) = span_count(&trace, &name, "wfbp.sync");
        assert!(sb > 0 && sb == se, "{name}: balanced wfbp.sync spans");
        // A PS layer applies each KV pair as it arrives, every other scheme
        // applies once when the layer's sync completes.
        let (ab, ae) = span_count(&trace, &name, "apply");
        assert!(
            ab == ae && ab >= sb,
            "{name}: balanced apply spans, at least one per completed sync ({ab}/{ae} vs {sb})"
        );
        let (bb, be) = span_count(&trace, &name, "bwd");
        assert!(bb > 0 && bb == be, "{name}: nn probe recorded backward");
        // The probe runs below the training loop; the worker tells it which
        // iteration its spans belong to.
        for compute in ["fwd", "bwd"] {
            let track = trace.tracks.iter().find(|t| t.name == name).unwrap();
            let mut iters: Vec<u64> = track
                .events
                .iter()
                .filter(|e| e.name == compute && e.kind == EventKind::Begin)
                .map(|e| e.b)
                .collect();
            iters.dedup();
            assert_eq!(
                iters,
                (0..ITERS as u64).collect::<Vec<_>>(),
                "{name}: {compute} spans carry their iteration"
            );
        }
        let shard = format!("shard e{}", WORKERS + w);
        let (vb, ve) = span_count(&trace, &shard, "serve.apply");
        assert!(vb > 0 && vb == ve, "{shard}: balanced serve.apply spans");
    }

    // And the live event stream round-trips through the Chrome exporter.
    let json = chrome::to_chrome_json(std::slice::from_ref(&trace));
    let stats = chrome::validate(&json).expect("live trace must export cleanly");
    assert!(stats.spans > 0 && stats.tracks >= 2 * WORKERS);
}
